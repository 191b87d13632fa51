# Builds the shared AddressSanitizer tree (-DRVDYN_SANITIZE=address) and
# runs one suite's test binaries under it. Every ASan suite points at the
# same BINARY_DIR, so the sanitized libraries build once and each suite
# adds only its own test targets. Run via
#   cmake -DSUITE=<name> -DTARGETS=<t1,t2,...> -P tests/asan_check.cmake
# (registered as the asan_*_suite ctests from non-sanitized builds; see
# tests/CMakeLists.txt for each suite's target list).
#
# Variables (-D before -P):
#   TARGETS     comma-separated test targets to build and run (required)
#   SUITE       name used in messages (default: asan)
#   SOURCE_DIR  repo root (default: parent of this script)
#   BINARY_DIR  nested build dir (default: ${SOURCE_DIR}/build-asan)
#   JOBS        parallel build jobs (default: 4)

if(NOT TARGETS)
  message(FATAL_ERROR "asan check: TARGETS is required")
endif()
string(REPLACE "," ";" targets "${TARGETS}")
if(NOT SUITE)
  set(SUITE asan)
endif()
if(NOT SOURCE_DIR)
  get_filename_component(SOURCE_DIR ${CMAKE_CURRENT_LIST_DIR} DIRECTORY)
endif()
if(NOT BINARY_DIR)
  set(BINARY_DIR ${SOURCE_DIR}/build-asan)
endif()
if(NOT JOBS)
  set(JOBS 4)
endif()

message(STATUS "${SUITE}: configuring ${BINARY_DIR} with -DRVDYN_SANITIZE=address")
execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BINARY_DIR}
          -DRVDYN_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${SUITE}: configure failed")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BINARY_DIR} -j ${JOBS} --target ${targets}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${SUITE}: build failed with RVDYN_SANITIZE=address")
endif()

foreach(t ${targets})
  message(STATUS "${SUITE}: running ${t}")
  execute_process(
    COMMAND ${BINARY_DIR}/tests/${t}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${SUITE}: ${t} failed under AddressSanitizer")
  endif()
endforeach()

message(STATUS "${SUITE}: ${TARGETS} clean under ASan")
