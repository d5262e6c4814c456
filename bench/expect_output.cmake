# Runs one deterministic bench and fails unless its stdout matches the
# committed expected file byte for byte. On a mismatch the actual output
# is left next to the build tree for `diff -u`.
#
#   cmake -DBIN=<bench> -DEXPECTED=<file> -DACTUAL=<file> -P expect_output.cmake
execute_process(
  COMMAND ${BIN} --no-json
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${status}")
endif()
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR
    "${BIN} output differs from ${EXPECTED}; see diff -u ${EXPECTED} ${ACTUAL}")
endif()
