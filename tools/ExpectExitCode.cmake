# Runs deept_cli with ARGS ('|'-separated) and fails unless it exits with
# EXPECT_RC and, when EXPECT_STDERR is set, prints that text on stderr.
#
#   cmake -DDEEPT_CLI=... -DARGS="certify|--norm|l7" -DEXPECT_RC=2
#         [-DEXPECT_STDERR=--norm] -P ExpectExitCode.cmake
string(REPLACE "|" ";" ArgList "${ARGS}")
execute_process(
  COMMAND "${DEEPT_CLI}" ${ArgList}
  RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_VARIABLE ErrOut)
if(NOT Rc EQUAL EXPECT_RC)
  message(FATAL_ERROR
    "deept_cli ${ArgList}: exit code ${Rc}, expected ${EXPECT_RC}\n${ErrOut}")
endif()
if(DEFINED EXPECT_STDERR AND NOT ErrOut MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR
    "deept_cli ${ArgList}: stderr lacks '${EXPECT_STDERR}':\n${ErrOut}")
endif()
