# Runs the command after `--` and checks what it produced against
# EXPECTED, the output of the program the command replaced:
#   cmake -DEXPECTED=<file> [-DOUTPUT=<file> | -DROWS=ON]
#         -P check_output.cmake -- <command> [args...]
# By default the command's stdout must equal EXPECTED byte for byte; with
# OUTPUT, the file the command wrote there must. With ROWS, every table
# row ("| ..." line) of EXPECTED must begin a line of the stdout: rows may
# come in another order and may gain columns at their end. The stdout is
# left in <EXPECTED name>.actual in the working directory, for diffing.
set(cmd)
set(seen FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(n RANGE ${last})
  if(seen)
    list(APPEND cmd "${CMAKE_ARGV${n}}")
  elseif("${CMAKE_ARGV${n}}" STREQUAL "--")
    set(seen TRUE)
  endif()
endforeach()

get_filename_component(actual ${EXPECTED} NAME)
set(actual ${actual}.actual)
execute_process(COMMAND ${cmd} OUTPUT_FILE ${actual} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${cmd} exited with ${rc}")
endif()

if(ROWS)
  file(READ ${actual} out)
  file(STRINGS ${EXPECTED} rows REGEX "^\\| ")
  if(NOT rows)
    message(FATAL_ERROR "${EXPECTED} has no table rows")
  endif()
  foreach(row IN LISTS rows)
    string(FIND "\n${out}" "\n${row}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "no line of ${actual} begins with\n${row}")
    endif()
  endforeach()
  return()
endif()

if(NOT OUTPUT)
  set(OUTPUT ${actual})
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUTPUT}
                        ${EXPECTED}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUTPUT} differs from ${EXPECTED}")
endif()
