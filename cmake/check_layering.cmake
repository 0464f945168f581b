# Layering guard. The simulator's lower layers (src/sim, util, net, core
# and tcp) may include only each other, plus the two obs/ headers that
# define the flight recorder they write to. Everything above them (stats,
# obs, exp, ...) reaches them through their interfaces, never the other
# way round. Prints each offending include as file:line and fails if
# there is one.
#
#   cmake -DSRC_DIR=<repo>/src -P cmake/check_layering.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT IS_DIRECTORY "${SRC_DIR}")
  message(FATAL_ERROR "check_layering: set -DSRC_DIR=<repo>/src")
endif()

set(lower_layers sim util net core tcp)
set(allowed_headers obs/flight_recorder.h obs/trace_record.h)

set(violations 0)
foreach(layer IN LISTS lower_layers)
  file(GLOB_RECURSE sources RELATIVE "${SRC_DIR}"
       "${SRC_DIR}/${layer}/*.h" "${SRC_DIR}/${layer}/*.cc")
  list(SORT sources)
  foreach(source IN LISTS sources)
    file(READ "${SRC_DIR}/${source}" text)
    # One list element per line: neutralize the characters a CMake list
    # treats specially before splitting on newlines.
    string(REPLACE ";" "," text "${text}")
    string(REPLACE "\\" "/" text "${text}")
    string(REPLACE "[" "(" text "${text}")
    string(REPLACE "]" ")" text "${text}")
    string(REPLACE "\n" ";" lines "${text}")
    set(line_no 0)
    foreach(line IN LISTS lines)
      math(EXPR line_no "${line_no} + 1")
      if(NOT line MATCHES "^[ \t]*#[ \t]*include[ \t]*\"([^\"]+)\"")
        continue()
      endif()
      set(header "${CMAKE_MATCH_1}")
      string(REGEX REPLACE "/.*" "" header_dir "${header}")
      if(header_dir IN_LIST lower_layers AND header MATCHES "/")
        continue()
      endif()
      if(header IN_LIST allowed_headers)
        continue()
      endif()
      message("${source}:${line_no}: includes \"${header}\"")
      math(EXPR violations "${violations} + 1")
    endforeach()
  endforeach()
endforeach()

if(violations GREATER 0)
  message(FATAL_ERROR
          "check_layering: ${violations} include(s) reach above "
          "sim/util/net/core/tcp")
endif()
message("check_layering: sim/util/net/core/tcp include only themselves")
