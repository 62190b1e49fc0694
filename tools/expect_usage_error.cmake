# Runs CLI with the '|'-separated ARGS and passes only when the CLI
# rejects them as a usage error: exit code 2 and EXPECT on its output.
#
#   cmake -DCLI=<binary> "-DARGS=<arg>|<arg>..." "-DEXPECT=<message>" \
#     -P expect_usage_error.cmake

string(REPLACE "|" ";" args "${ARGS}")
execute_process(
  COMMAND "${CLI}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
string(FIND "${out}${err}" "${EXPECT}" found)
if(NOT rc EQUAL 2 OR found EQUAL -1)
  message(FATAL_ERROR
    "${ARGS}: want exit 2 and '${EXPECT}', got exit ${rc}:\n"
    "${out}${err}")
endif()
