# Runs TOOL with the ;-separated ARGS and requires the strict-option
# failure: exit status 2, the one-line error EXPECT_ERROR on stderr, and
# the usage text on stdout.
#   cmake -DTOOL=<path> -DARGS="plan;--quotient;rebuild"
#         -DEXPECT_ERROR="error: unknown option '--quotient'" -P <this file>
execute_process(
  COMMAND ${TOOL} ${ARGS}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got '${status}'\n${err}")
endif()
if(NOT err STREQUAL "${EXPECT_ERROR}\n")
  message(FATAL_ERROR "expected stderr '${EXPECT_ERROR}', got '${err}'")
endif()
string(FIND "${out}" "usage: fcm_tool <command> [options]\n" usage_at)
if(NOT usage_at EQUAL 0)
  message(FATAL_ERROR "stdout does not start with the usage line:\n${out}")
endif()
