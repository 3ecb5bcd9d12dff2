# Checks pinned bench output digests. For every `<sha256>  <bench>.<model>.txt`
# line of GOLDEN (sha256sum format), runs
#
#   BIN_DIR/<bench> --quick <VARIANT flags> --trace-model <model>
#
# in OUT_DIR, writes its stdout to OUT_DIR/<bench>.<model>.txt and compares
# the file's SHA-256 with the pinned one. Every variant must hash to the same
# digest, since neither the thread count nor instrumentation may move a byte:
#
#   threads4 (the default)  --threads 4
#   threads1                --threads 1
#   default_pool            no --threads: one worker per hardware thread
#   obs                     --threads 4 --metrics
#                           --trace-out OUT_DIR/<bench>.<model>.trace.json
#
# Fails on a malformed line, a failing run or a digest that differs; the
# outputs stay in OUT_DIR for diffing.
#
#   cmake -DGOLDEN=tests/golden/replay_quick.sha256 -DBIN_DIR=build \
#         -DOUT_DIR=build/golden/replay/threads1 -DVARIANT=threads1 \
#         -P tests/golden/check_digests.cmake
foreach(var GOLDEN BIN_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_digests.cmake: -D${var}=... is required")
  endif()
  # The benches run in OUT_DIR, so relative paths are resolved first.
  get_filename_component(${var} "${${var}}" ABSOLUTE)
endforeach()
if(NOT DEFINED VARIANT)
  set(VARIANT threads4)
endif()
if(NOT VARIANT MATCHES "^(threads4|threads1|default_pool|obs)$")
  message(FATAL_ERROR "check_digests.cmake: unknown VARIANT '${VARIANT}'")
endif()

file(MAKE_DIRECTORY "${OUT_DIR}")
file(STRINGS "${GOLDEN}" lines)
if(NOT lines)
  message(FATAL_ERROR "${GOLDEN}: no digests")
endif()
foreach(line IN LISTS lines)
  if(NOT line MATCHES "^([0-9a-f]+)  ([A-Za-z0-9_]+)\\.([a-z]+)\\.txt$")
    message(FATAL_ERROR "${GOLDEN}: malformed line '${line}'")
  endif()
  set(want "${CMAKE_MATCH_1}")
  set(name "${CMAKE_MATCH_2}.${CMAKE_MATCH_3}.txt")
  if(VARIANT STREQUAL "threads1")
    set(flags --threads 1)
  elseif(VARIANT STREQUAL "default_pool")
    set(flags)
  elseif(VARIANT STREQUAL "obs")
    set(flags --threads 4 --metrics --trace-out
              "${OUT_DIR}/${CMAKE_MATCH_2}.${CMAKE_MATCH_3}.trace.json")
  else()
    set(flags --threads 4)
  endif()
  # --metrics writes metrics.json into the working directory.
  execute_process(
      COMMAND "${BIN_DIR}/${CMAKE_MATCH_2}" --quick ${flags}
              --trace-model "${CMAKE_MATCH_3}"
      WORKING_DIRECTORY "${OUT_DIR}"
      OUTPUT_FILE "${OUT_DIR}/${name}"
      ERROR_VARIABLE err
      RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "0")
    message(SEND_ERROR "${name}: run failed (${rc})\n${err}")
    continue()
  endif()
  file(SHA256 "${OUT_DIR}/${name}" got)
  if(got STREQUAL want)
    message(STATUS "${name}: OK")
  else()
    message(SEND_ERROR "${name}: sha256 ${got}, pinned ${want}")
  endif()
endforeach()
