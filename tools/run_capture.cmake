# Run a command and capture its stdout to a file, failing the test if
# the command fails. Used by the bench e2e tests so that a bench's
# printed table can be compared against its -o report
# (`tstream-bench check-stdout`).
#
# Usage:
#   cmake -DCMD=<binary> "-DARGS=a|b|c" -DOUT=<file>
#         [-DCACHE_DIR=<trace cache dir>] [-DWORKDIR=<dir>]
#         -P run_capture.cmake
#
# ARGS is |-separated (not a CMake ;-list: semicolons do not survive
# the add_test -> CTestTestfile -> cmake -D round trip unmangled).
# WORKDIR runs the command from another directory, so a captured
# output that prints file paths (e.g. `tstream-trace query`) can use
# relative paths and compare against a checked-in golden.
if(NOT DEFINED CMD OR NOT DEFINED OUT)
  message(FATAL_ERROR "run_capture.cmake needs -DCMD and -DOUT")
endif()
string(REPLACE "|" ";" ARGS "${ARGS}")
if(DEFINED CACHE_DIR)
  set(ENV{TSTREAM_TRACE_CACHE} "${CACHE_DIR}")
endif()
if(DEFINED WORKDIR)
  set(workdir_opt WORKING_DIRECTORY ${WORKDIR})
else()
  set(workdir_opt)
endif()
execute_process(
  COMMAND ${CMD} ${ARGS}
  OUTPUT_FILE ${OUT}
  ${workdir_opt}
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "${CMD} failed with status ${rv}")
endif()
