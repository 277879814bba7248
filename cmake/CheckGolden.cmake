# Compares a compiler output against a committed golden, byte for byte.
# On mismatch the actual output is left at ${OUT} for inspection;
# regenerate a golden by copying ${OUT} over the file in tests/golden/
# after reviewing the change.  Two outputs are pinned this way:
#
#   - a marshal-plan dump: `flickc --dump-marshal-plan` on one IDL file;
#   - the generated stubs: SHA-256 of every file the golden lists, in
#     `sha256sum` format with paths relative to STUB_ROOT (so
#     `sha256sum -c` from the build tree checks it too).
#
# Usage:
#   cmake -DFLICKC=<flickc> -DIDL=<file.idl> -DGOLDEN=<golden.plan>
#         -DOUT=<dump.txt> -DGENDIR=<scratch-dir>
#         [-DEXTRA_ARGS=<flag;flag...>] -P CheckGolden.cmake
#   cmake -DSTUB_ROOT=<build-tree> -DGOLDEN=<stubs.sha256>
#         -DOUT=<stubs.sha256> -P CheckGolden.cmake

if(DEFINED STUB_ROOT)
  set(REQUIRED STUB_ROOT GOLDEN OUT)
else()
  set(REQUIRED FLICKC IDL GOLDEN OUT GENDIR)
endif()
foreach(VAR ${REQUIRED})
  if(NOT DEFINED ${VAR})
    message(FATAL_ERROR "CheckGolden.cmake: -D${VAR}=... is required")
  endif()
endforeach()

set(DIFFERING "")
if(DEFINED STUB_ROOT)
  file(STRINGS "${GOLDEN}" LINES)
  set(ACTUAL "")
  foreach(LINE IN LISTS LINES)
    string(REGEX REPLACE "^[0-9a-f]+  " "" PATH "${LINE}")
    if(EXISTS "${STUB_ROOT}/${PATH}")
      file(SHA256 "${STUB_ROOT}/${PATH}" DIGEST)
    else()
      set(DIGEST "missing")
    endif()
    string(APPEND ACTUAL "${DIGEST}  ${PATH}\n")
    if(NOT LINE STREQUAL "${DIGEST}  ${PATH}")
      string(APPEND DIFFERING "  ${PATH}\n")
    endif()
  endforeach()
else()
  file(MAKE_DIRECTORY "${GENDIR}")
  execute_process(
    COMMAND "${FLICKC}" ${EXTRA_ARGS} --dump-marshal-plan
            -o "${GENDIR}/plan_dump_scratch" "${IDL}"
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE ACTUAL
    ERROR_VARIABLE STDERR)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "flickc --dump-marshal-plan failed (rc=${RC}):\n"
                        "${STDERR}")
  endif()
endif()

file(WRITE "${OUT}" "${ACTUAL}")
file(READ "${GOLDEN}" WANT)
if(NOT ACTUAL STREQUAL WANT)
  message(FATAL_ERROR "output differs from golden ${GOLDEN}\n${DIFFERING}"
                      "actual output saved to ${OUT}")
endif()

message(STATUS "golden OK: ${GOLDEN}")
