# Runs one bench binary with its environment, then gates what it wrote
# with a bench/check_*.py checker.  One procedure behind every bench-gate
# ctest (flick_bench_gate() in tests/CMakeLists.txt): remove stale
# outputs, run the bench under `cmake -E env`, fail on a nonzero exit or
# a missing OUT, run `PYTHON CHECKER OUT ARGS...`, and fail with the
# checker's output.
#
# Usage:
#   cmake -DNAME=<ctest> -DBENCH=<bench-binary> -DCHECKER=<check_*.py>
#         -DPYTHON=<python3> -DOUT=<file the bench writes>
#         [-DENV=<VAR=value;...>] [-DCLEAN=<more stale files;...>]
#         [-DARGS=<checker args after OUT;...>] -P CheckBench.cmake

foreach(VAR NAME BENCH CHECKER PYTHON OUT)
  if(NOT DEFINED ${VAR})
    message(FATAL_ERROR "CheckBench.cmake: -D${VAR}=... is required")
  endif()
endforeach()

file(REMOVE "${OUT}" ${CLEAN})
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env ${ENV} "${BENCH}"
  RESULT_VARIABLE RC
  OUTPUT_VARIABLE STDOUT
  ERROR_VARIABLE STDERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "bench run failed (rc=${RC}):\n${STDERR}")
endif()
if(NOT EXISTS "${OUT}")
  message(FATAL_ERROR "bench did not write ${OUT}")
endif()

execute_process(
  COMMAND "${PYTHON}" "${CHECKER}" "${OUT}" ${ARGS}
  RESULT_VARIABLE RC
  OUTPUT_VARIABLE STDOUT
  ERROR_VARIABLE STDERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "${NAME} failed (rc=${RC}):\n${STDOUT}${STDERR}")
endif()
message(STATUS "${STDOUT}")
