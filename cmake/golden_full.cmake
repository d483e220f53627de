# Full-length golden test (ctest -L golden_full): rerun every sweep named in
# MANIFEST at its registered length on 4 threads and compare each CSV's md5
# with the manifest's. A sweep without a registered length runs at the
# default 300k µops: HCSIM_TRACE_LEN is cleared so the environment cannot
# shorten the run, and the HCSIM_SAMPLE_* variables so it cannot turn
# sampling on.
# Variables: SWEEP (hcsim_sweep), MANIFEST (tests/golden_full.md5), WORK_DIR.

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
foreach(var HCSIM_TRACE_LEN HCSIM_SAMPLE_WARMUP HCSIM_SAMPLE_MEASURE
            HCSIM_SAMPLE_PERIOD HCSIM_SAMPLE_MAX_WINDOWS)
  unset(ENV{${var}})
endforeach()

file(STRINGS ${MANIFEST} entries REGEX "^[0-9a-f]+  [a-z0-9_]+\\.csv$")
if(NOT entries)
  message(FATAL_ERROR "no md5 entries in ${MANIFEST}")
endif()

set(mismatches "")
foreach(entry IN LISTS entries)
  string(REGEX MATCH "^([0-9a-f]+)  ([a-z0-9_]+)\\.csv$" _ "${entry}")
  set(want ${CMAKE_MATCH_1})
  set(sweep ${CMAKE_MATCH_2})
  set(csv ${WORK_DIR}/${sweep}.csv)
  execute_process(COMMAND ${SWEEP} ${sweep} --threads 4 --quiet --csv ${csv}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hcsim_sweep ${sweep} failed (${rc}):\n${out}\n${err}")
  endif()
  file(MD5 ${csv} got)
  if(got STREQUAL want)
    message(STATUS "${sweep}: ${got} ok")
  else()
    string(APPEND mismatches "\n  ${sweep}: got ${got}, manifest ${want} (${csv})")
  endif()
endforeach()

if(mismatches)
  message(FATAL_ERROR "full-length CSVs differ from ${MANIFEST}:${mismatches}")
endif()
