# Runs `${BIN} ${ARG}` and fails unless it exits with code ${EXPECT}.
# Usage: cmake -DBIN=<program> -DARG=<argument> -DEXPECT=<code> -P expect_exit.cmake
execute_process(COMMAND "${BIN}" "${ARG}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err
                TIMEOUT 20)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${BIN} ${ARG}: exit '${rc}', expected ${EXPECT}\n${err}")
endif()
