# Runs `flickc --stats=<json>` on an IDL file and validates the payload:
# the document must parse as JSON (cmake >= 3.19), contain one entry per
# pipeline phase (parse, verify, mint, presgen, backend), and report
# nonzero IR-size counters.
#
# Usage:
#   cmake -DFLICKC=<flickc> -DIDL=<file.idl> -DOUT=<stats.json>
#         -DGENDIR=<scratch-dir> -P CheckStatsJson.cmake

foreach(VAR FLICKC IDL OUT GENDIR)
  if(NOT DEFINED ${VAR})
    message(FATAL_ERROR "CheckStatsJson.cmake: -D${VAR}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${GENDIR}")
execute_process(
  COMMAND "${FLICKC}" --stats=${OUT} -o "${GENDIR}/stats_cli" "${IDL}"
  RESULT_VARIABLE RC
  OUTPUT_VARIABLE STDOUT
  ERROR_VARIABLE STDERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "flickc --stats failed (rc=${RC}):\n${STDERR}")
endif()

file(READ "${OUT}" DOC)

# Whole-document JSON validity (string(JSON) raises on malformed input).
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  string(JSON TOOL GET "${DOC}" tool)
  if(NOT TOOL STREQUAL "flickc")
    message(FATAL_ERROR "stats JSON: expected \"tool\": \"flickc\", got "
                        "'${TOOL}'")
  endif()
endif()

# One region per pipeline phase, plus one per marshal-plan pass (nested
# under the backend region; all passes are on by default).
foreach(PHASE parse verify mint presgen backend
              pass.inline pass.chunk pass.memcpy pass.bounded pass.scratch
              pass.alias)
  if(NOT DOC MATCHES "\"name\": \"${PHASE}\"")
    message(FATAL_ERROR "stats JSON: missing phase '${PHASE}' in:\n${DOC}")
  endif()
endforeach()

# Per-pass plan counters.  Presence only: the keys are created even when a
# pass finds nothing to transform, so a missing key means the pass never
# ran its counting path at all.
foreach(COUNTER "plan.inline_items" "plan.chunks_before" "plan.chunks_after"
                "plan.chunk_bytes" "plan.memcpy_members"
                "plan.bounded_segments" "plan.scratch_segments"
                "plan.alias_segments")
  if(NOT DOC MATCHES "\"${COUNTER}\": [0-9]")
    message(FATAL_ERROR
            "stats JSON: plan counter '${COUNTER}' missing in:\n${DOC}")
  endif()
endforeach()

# Nonzero IR-size counters ([1-9] forces a nonzero leading digit).
foreach(COUNTER "aoi.defs" "lexer.tokens" "mint.nodes.total" "cast.nodes"
                "backend.bytes_total" "backend.cast_nodes"
                "backend.cast_bytes")
  if(NOT DOC MATCHES "\"${COUNTER}\": [1-9]")
    message(FATAL_ERROR
            "stats JSON: counter '${COUNTER}' missing or zero in:\n${DOC}")
  endif()
endforeach()

message(STATUS "stats JSON OK: ${OUT}")
