# Parallel-determinism check for the coopfs_bench driver (run via `cmake -P`).
#
# Replay depends only on (config, policy), never on scheduling, so the driver
# must produce byte-identical stdout and coopfs.metrics/v1 exports whether
# experiments and sweeps run serially or fanned out. Runs the same selection
# at --threads 1 and --threads THREADS, each with --json and --out-dir naming
# one directory, and fails on any stdout difference, on a missing
# <name>.metrics.json or <name>.run.json, or on any metrics file difference.
#
# Both runs use the relative directory "runs" inside their own working
# directory, so the "wrote metrics document: <path>" lines match too.
#
# Expected -D variables:
#   DRIVER   path to the coopfs_bench binary
#   FILTER   the --filter glob for the selection
#   NAMES    ;-list of the experiment names FILTER selects
#   EVENTS   --events value (kept small for test time)
#   THREADS  parallel width to compare against serial
#   OUT_DIR  scratch directory for both runs
foreach(var DRIVER FILTER NAMES EVENTS THREADS OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_driver_determinism.cmake: missing -D${var}")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
foreach(mode serial parallel)
  if(mode STREQUAL "serial")
    set(threads 1)
  else()
    set(threads "${THREADS}")
  endif()
  file(MAKE_DIRECTORY "${OUT_DIR}/${mode}")
  execute_process(COMMAND "${DRIVER}" --filter "${FILTER}" --events "${EVENTS}"
      --threads "${threads}" --out-dir runs --json runs
    WORKING_DIRECTORY "${OUT_DIR}/${mode}"
    OUTPUT_VARIABLE ${mode}_out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${mode} driver run failed with exit code ${rc}")
  endif()
  foreach(name IN LISTS NAMES)
    foreach(suffix metrics.json run.json)
      if(NOT EXISTS "${OUT_DIR}/${mode}/runs/${name}.${suffix}")
        message(FATAL_ERROR "${mode} run did not write runs/${name}.${suffix}")
      endif()
    endforeach()
  endforeach()
endforeach()

if(NOT serial_out STREQUAL parallel_out)
  file(WRITE "${OUT_DIR}/serial.stdout" "${serial_out}")
  file(WRITE "${OUT_DIR}/parallel.stdout" "${parallel_out}")
  message(FATAL_ERROR "--threads ${THREADS} changed the driver's stdout; see "
    "${OUT_DIR}/serial.stdout vs ${OUT_DIR}/parallel.stdout")
endif()

foreach(name IN LISTS NAMES)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
      "${OUT_DIR}/serial/runs/${name}.metrics.json"
      "${OUT_DIR}/parallel/runs/${name}.metrics.json"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--threads ${THREADS} changed the metrics export for ${name}")
  endif()
endforeach()
message(STATUS "--threads ${THREADS} byte-identical to serial for '${FILTER}' "
  "(stdout and metrics exports), and all manifests written")
