# One bench binary per paper artefact (DESIGN.md's per-experiment index).
# Included from the top-level CMakeLists (not add_subdirectory) so that
# build/bench/ contains nothing but the bench binaries — the whole
# directory is runnable as `for b in build/bench/*; do $b; done`.
function(rebench_add_bench source)
  get_filename_component(name ${source} NAME_WE)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${source})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  target_link_libraries(${name} PRIVATE
    rebench_core rebench_parallel rebench_sim
    rebench_babelstream rebench_hpcg rebench_hpgmg
    benchmark::benchmark)
endfunction()

rebench_add_bench(fig2_babelstream.cpp)
rebench_add_bench(table2_hpcg.cpp)
rebench_add_bench(table3_concretize.cpp)
rebench_add_bench(table4_hpgmg.cpp)
rebench_add_bench(ablation_buildpath.cpp)
rebench_add_bench(ablation_rebuild.cpp)
rebench_add_bench(ablation_postproc.cpp)
rebench_add_bench(ablation_regression.cpp)
rebench_add_bench(scaling_hpgmg.cpp)
rebench_add_bench(ablation_hpcg_mg.cpp)
rebench_add_bench(ablation_hygiene.cpp)
rebench_add_bench(ablation_parallel.cpp)
rebench_add_bench(ablation_profile.cpp)
rebench_add_bench(ablation_history.cpp)
rebench_add_bench(ablation_infer.cpp)
rebench_add_bench(ablation_dataframe.cpp)
# Row-engine baseline: the test-only oracle library from tests/CMakeLists.txt.
target_link_libraries(ablation_dataframe PRIVATE rebench_rowframe_oracle)
