# Configures one nested build tree with a single -D option, builds only a
# suite's test targets and runs them. Trees may be shared between suites:
# the libraries build once and each suite adds only its own targets. Run
# via
#   cmake -DSUITE=<name> -DOPTION=<VAR=value> -DTARGETS=<t1,t2,...> \
#         -P tests/nested_check.cmake
# (registered as the buildcheck ctests; see tests/CMakeLists.txt for each
# suite's option, tree and target list).
#
# Variables (-D before -P):
#   OPTION      configure option without the -D, e.g. RVDYN_JIT=OFF
#               (required)
#   TARGETS     comma-separated test targets to build and run (required)
#   SUITE       name used in messages (default: nested)
#   SOURCE_DIR  repo root (default: parent of this script)
#   BINARY_DIR  nested build dir (default: ${SOURCE_DIR}/build-${SUITE})
#   JOBS        parallel build jobs (default: 4)

if(NOT OPTION OR NOT TARGETS)
  message(FATAL_ERROR "nested check: OPTION and TARGETS are required")
endif()
string(REPLACE "," ";" targets "${TARGETS}")
if(NOT SUITE)
  set(SUITE nested)
endif()
if(NOT SOURCE_DIR)
  get_filename_component(SOURCE_DIR ${CMAKE_CURRENT_LIST_DIR} DIRECTORY)
endif()
if(NOT BINARY_DIR)
  set(BINARY_DIR ${SOURCE_DIR}/build-${SUITE})
endif()
if(NOT JOBS)
  set(JOBS 4)
endif()

message(STATUS "${SUITE}: configuring ${BINARY_DIR} with -D${OPTION}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BINARY_DIR}
          -D${OPTION} -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${SUITE}: configure failed")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BINARY_DIR} -j ${JOBS} --target ${targets}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${SUITE}: build failed with -D${OPTION}")
endif()

foreach(t ${targets})
  message(STATUS "${SUITE}: running ${t}")
  execute_process(
    COMMAND ${BINARY_DIR}/tests/${t}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${SUITE}: ${t} failed with -D${OPTION}")
  endif()
endforeach()

message(STATUS "${SUITE}: ${TARGETS} pass with -D${OPTION}")
