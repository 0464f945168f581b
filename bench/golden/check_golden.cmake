# Runs `REPRODUCE EXPERIMENT` and compares its stdout with
# <EXPERIMENT>.txt next to this script, byte for byte.
#   cmake -DREPRODUCE=<binary> -DEXPERIMENT=<name> -P check_golden.cmake
# On a failure the actual output is written to <EXPERIMENT>.txt.actual
# in the working directory, for diffing.
execute_process(COMMAND ${REPRODUCE} ${EXPERIMENT}
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
file(READ ${CMAKE_CURRENT_LIST_DIR}/${EXPERIMENT}.txt want)
if(rc EQUAL 0 AND out STREQUAL want)
  return()
endif()
file(WRITE ${EXPERIMENT}.txt.actual "${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "reproduce ${EXPERIMENT} exited with ${rc}; its "
          "stdout is in ${EXPERIMENT}.txt.actual")
endif()
message(FATAL_ERROR "stdout differs from bench/golden/${EXPERIMENT}.txt; "
        "actual output written to ${EXPERIMENT}.txt.actual. Regenerate "
        "after an intended change with\n  ./build/bench/reproduce "
        "${EXPERIMENT} > bench/golden/${EXPERIMENT}.txt")
