# Runs BIN and compares its stdout with the GOLDEN file byte for byte.
#   cmake -DBIN=<binary> -DGOLDEN=<file> -P check_golden.cmake
# On a mismatch the actual output is written next to the working
# directory as <golden name>.actual, for diffing.
execute_process(COMMAND ${BIN} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
  get_filename_component(name ${GOLDEN} NAME)
  file(WRITE ${name}.actual "${out}")
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}; "
                      "actual output written to ${name}.actual")
endif()
