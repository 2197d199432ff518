# Fails when a test source names a fixed path under the temp directory.
# ctest runs every gtest case as its own process, in parallel, so such a
# path is shared between concurrently running tests: one test's cleanup
# deletes what another is still reading. Tests take a per-process directory
# from testing::ScratchDir (src/testing/scratch_dir.h) instead.
#
# Usage: cmake -DTEST_DIR=<tests dir> -P check_no_fixed_temp_paths.cmake
file(GLOB sources "${TEST_DIR}/*.cc")
set(ws "[ \t\r\n]*")
set(offenders "")
foreach(src IN LISTS sources)
  file(READ "${src}" text)
  if(text MATCHES "temp_directory_path\\(\\)${ws}/${ws}\"" OR
     text MATCHES "TempDir\\(\\)\\)?${ws}[+/]" OR
     text MATCHES "\"/tmp/")
    list(APPEND offenders "${src}")
  endif()
endforeach()
if(offenders)
  list(JOIN offenders "\n  " listed)
  message(FATAL_ERROR "fixed temp-directory paths in:\n  ${listed}\n"
                      "use testing::ScratchDir for per-process files")
endif()
