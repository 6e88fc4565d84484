# Passed as CMAKE_PROJECT_INCLUDE when perfbench/run.py configures the
# repository root. It defers pdtfe_bench.cmake to the end of the top-level
# CMakeLists, after the repository's compile options, build type and library
# targets exist, so pdtfe_bench builds exactly like apps/pdtfe without any
# change to the repository's own build files.
set(PDTFE_PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${PDTFE_PERFBENCH_DIR}/pdtfe_bench.cmake")
