# Builds the tree once with -DRVDYN_SANITIZE=thread and runs the obs
# suite: the metrics registry's lock-free sharded counters, the trace
# sink's wait-free ring, and the sampler/export/postmortem layers on top.
# Any data race in a hook that fires from concurrent tool threads is a
# correctness bug in the observability layer's core promise. The same tree
# also runs the two suites that drive threads through the toolkit: the
# wave-parallel parser (test_parse_parallel) and multi-worker fuzz
# campaigns (test_fuzz_campaign). Run via
#   cmake -P tests/tsan_obs_check.cmake
# (registered as the `tsan_obs_suite` ctest from non-sanitized builds).
#
# Variables (all optional, -D before -P):
#   SOURCE_DIR  repo root (default: parent of this script)
#   BINARY_DIR  nested build dir (default: ${SOURCE_DIR}/build-tsan-obs)
#   JOBS        parallel build jobs (default: 4)

if(NOT SOURCE_DIR)
  get_filename_component(SOURCE_DIR ${CMAKE_CURRENT_LIST_DIR} DIRECTORY)
endif()
if(NOT BINARY_DIR)
  set(BINARY_DIR ${SOURCE_DIR}/build-tsan-obs)
endif()
if(NOT JOBS)
  set(JOBS 4)
endif()

message(STATUS
  "tsan-obs check: configuring ${BINARY_DIR} with -DRVDYN_SANITIZE=thread")
execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BINARY_DIR}
          -DRVDYN_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tsan-obs check: configure failed")
endif()

# Every binary carrying the obs_suite label in the main build, plus the
# parallel parser and the fuzz campaign.
set(targets
  test_obs
  test_obs_export
  test_obs_pipeline
  test_obs_postmortem
  test_obs_profiler
  test_obs_sampler
  test_parse_parallel
  test_fuzz_campaign)

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BINARY_DIR} -j ${JOBS} --target ${targets}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tsan-obs check: build failed with RVDYN_SANITIZE=thread")
endif()

foreach(t ${targets})
  message(STATUS "tsan-obs check: running ${t}")
  execute_process(
    COMMAND ${BINARY_DIR}/tests/${t}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tsan-obs check: ${t} reported races or failures")
  endif()
endforeach()

message(STATUS
  "tsan-obs check: obs, parallel-parse and campaign suites clean under "
  "ThreadSanitizer")
