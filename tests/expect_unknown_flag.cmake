# Runs a program with one flag and passes only when the program refuses
# it through Cli::check_unused: a failing exit and "unknown flag --NAME"
# in its output.
#
#   cmake -DPROGRAM=<path> -DFLAG=--name[=value] -P expect_unknown_flag.cmake
string(REGEX REPLACE "=.*" "" flag_name "${FLAG}")
execute_process(COMMAND "${PROGRAM}" "${FLAG}"
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
if(result EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${FLAG} exited 0; expected a refusal\n"
                      "${output}")
endif()
string(FIND "${output}" "unknown flag ${flag_name}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${PROGRAM} ${FLAG} failed (${result}) without "
                      "naming the unknown flag ${flag_name}:\n${output}")
endif()
