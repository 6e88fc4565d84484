# The pdtfe_bench target, included at the end of the repository's
# top-level CMakeLists by attach.cmake: it compiles with the repository's own
# flags and links the same libraries as apps/pdtfe.
add_executable(pdtfe_bench ${CMAKE_CURRENT_LIST_DIR}/pdtfe_bench.cpp)
target_link_libraries(pdtfe_bench PRIVATE pdtfe_core)
target_compile_definitions(pdtfe_bench PRIVATE
  PDTFE_BENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
