# Run a `tstream-bench run --fleet N` command and check what it left of
# its auto-named claim session. The session id is read from the
# fleet's own `fleet: N worker(s), session ID` log line, so fleets that
# share the trace cache do not disturb the check.
#
# Usage:
#   cmake -DCMD=<tstream-bench> "-DARGS=run|--fleet|3|..."
#         -DCACHE_DIR=<trace cache dir> [-DKEPT=ON] -P check_fleet_session.cmake
#
# Without KEPT the run must exit 0 and its session directory must be
# gone. With KEPT the run must exit 1 (the merge failed), print the
# kept session's path, and leave the directory in place; the check
# then removes it. ARGS is |-separated, as in run_capture.cmake.
if(NOT DEFINED CMD OR NOT DEFINED CACHE_DIR)
  message(FATAL_ERROR "check_fleet_session.cmake needs -DCMD and -DCACHE_DIR")
endif()
string(REPLACE "|" ";" ARGS "${ARGS}")
set(ENV{TSTREAM_TRACE_CACHE} "${CACHE_DIR}")
execute_process(
  COMMAND ${CMD} ${ARGS}
  OUTPUT_QUIET
  ERROR_VARIABLE err
  RESULT_VARIABLE rv)
if(NOT err MATCHES "fleet: [0-9]+ worker\\(s\\), session (fleet-[0-9]+-[0-9]+)")
  message(FATAL_ERROR "no fleet session line in stderr:\n${err}")
endif()
set(dir "${CACHE_DIR}/claims/${CMAKE_MATCH_1}")
if(KEPT)
  if(NOT rv STREQUAL "1")
    message(FATAL_ERROR "expected exit status 1, got: ${rv}\n${err}")
  endif()
  string(FIND "${err}" "fleet session kept in ${dir}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stderr does not name the kept session ${dir}:\n${err}")
  endif()
  if(NOT IS_DIRECTORY "${dir}")
    message(FATAL_ERROR "the failed fleet removed its session ${dir}")
  endif()
  file(REMOVE_RECURSE "${dir}")
else()
  if(NOT rv STREQUAL "0")
    message(FATAL_ERROR "fleet run failed with status ${rv}\n${err}")
  endif()
  if(EXISTS "${dir}")
    message(FATAL_ERROR "the fleet left its session behind: ${dir}")
  endif()
endif()
