# Run a command that must fail, and check that it failed the expected
# way. ctest's WILL_FAIL passes on any non-zero exit, so a rejection
# test kept that way still passes once the flag it exercises is
# deleted ("unknown option"), and it counts a death by signal as a
# failure either way.
#
# Usage:
#   cmake -DCMD=<binary> "-DARGS=a|b|c" -DSTDERR=<regex>
#         -P expect_failure.cmake
#     the command must exit with status 2 (a rejected command line)
#     and print a line matching STDERR to stderr
#   cmake -DCMD=<binary> "-DARGS=a|b|c" -DKILLED=ON
#         -P expect_failure.cmake
#     the command must die by SIGKILL (e.g. TSTREAM_CLAIM_DIE_AFTER)
#
# ARGS is |-separated, as in run_capture.cmake. -DEXIT=<n> expects exit
# status n instead of 2 (a run that failed, not a rejected command
# line). -DNO_FILES=<glob> additionally requires that, after the
# command, no file matches the recursive glob (e.g. the done markers
# of a claim session whose cells must not count as finished).
if(NOT DEFINED CMD OR (NOT DEFINED STDERR AND NOT KILLED))
  message(FATAL_ERROR "expect_failure.cmake needs -DCMD and -DSTDERR or -DKILLED")
endif()
string(REPLACE "|" ";" ARGS "${ARGS}")
execute_process(
  COMMAND ${CMD} ${ARGS}
  OUTPUT_QUIET
  ERROR_VARIABLE err
  RESULT_VARIABLE rv)
if(KILLED)
  # CMake reports a SIGKILL death as this string, not a number.
  if(NOT rv STREQUAL "Subprocess killed")
    message(FATAL_ERROR "expected death by SIGKILL, got: ${rv}\n${err}")
  endif()
  return()
endif()
if(NOT DEFINED EXIT)
  set(EXIT 2)
endif()
if(NOT rv STREQUAL "${EXIT}")
  message(FATAL_ERROR "expected exit status ${EXIT}, got: ${rv}\n${err}")
endif()
if(NOT err MATCHES "${STDERR}")
  message(FATAL_ERROR "stderr does not match \"${STDERR}\":\n${err}")
endif()
if(DEFINED NO_FILES)
  file(GLOB_RECURSE left "${NO_FILES}")
  if(left)
    message(FATAL_ERROR "expected no file matching ${NO_FILES}, found: ${left}")
  endif()
endif()
