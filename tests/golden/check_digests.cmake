# Checks pinned bench output digests. For every `<sha256>  <bench>.<model>.txt`
# line of GOLDEN (sha256sum format), runs
#
#   BIN_DIR/<bench> --quick --threads 4 --trace-model <model>
#
# writes its stdout to OUT_DIR/<bench>.<model>.txt and compares the file's
# SHA-256 with the pinned one. Fails on a malformed line, a failing run or a
# digest that differs; the outputs stay in OUT_DIR for diffing.
#
#   cmake -DGOLDEN=tests/golden/replay_quick.sha256 -DBIN_DIR=build \
#         -DOUT_DIR=build/golden/replay -P tests/golden/check_digests.cmake
foreach(var GOLDEN BIN_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_digests.cmake: -D${var}=... is required")
  endif()
endforeach()

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
  execute_process(
      COMMAND "${BIN_DIR}/${CMAKE_MATCH_2}" --quick --threads 4
              --trace-model "${CMAKE_MATCH_3}"
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
