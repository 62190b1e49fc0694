# Runs `CLI FLAG VALUE <this directory>` and passes only when the CLI
# rejects the value as a usage error: exit code 2 and
# "bad value for FLAG" on its output.
#
#   cmake -DCLI=<binary> -DFLAG=<flag> -DVALUE=<value> \
#     -P expect_usage_error.cmake

execute_process(
  COMMAND "${CLI}" "${FLAG}" "${VALUE}" "${CMAKE_CURRENT_LIST_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
set(expected "bad value for ${FLAG}")
string(FIND "${out}${err}" "${expected}" found)
if(NOT rc EQUAL 2 OR found EQUAL -1)
  message(FATAL_ERROR
    "${FLAG} ${VALUE}: want exit 2 and '${expected}', got exit ${rc}:\n"
    "${out}${err}")
endif()
