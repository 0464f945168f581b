# Link budget. EXECUTABLES is the space-separated list of executables the
# default build defines (counted by the top-level CMakeLists.txt at
# configure time); fails when there are more than BUDGET.
#
#   cmake -DBUDGET=<n> "-DEXECUTABLES=<a b ...>" -P cmake/check_link_budget.cmake
separate_arguments(executables UNIX_COMMAND "${EXECUTABLES}")
list(LENGTH executables count)
list(JOIN executables "\n  " listed)
message("${count} executables (budget ${BUDGET}):\n  ${listed}")
if(count GREATER BUDGET)
  message(FATAL_ERROR "the default build links ${count} executables, more "
          "than the budget of ${BUDGET}")
endif()
