# Runs BIN with ARGS (one space-separated string) and fails unless it exits
# 1 with a line starting "error: " on stderr: how a driver must reject bad
# input. An abort (terminate(), exit 134) fails it.
#
#   cmake -DBIN=build/congest_demo "-DARGS=--family erx" -P tests/cli_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "1" OR NOT err MATCHES "(^|\n)error: ")
  message(FATAL_ERROR "${BIN} ${ARGS}: want exit 1 and an 'error: ' line, "
                      "got exit '${rc}' and stderr:\n${err}")
endif()
