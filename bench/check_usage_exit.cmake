# Script mode (cmake -P): bench_engine_compare must reject a mistyped
# flag, a call with no mode and a call with two modes by printing its
# usage and exiting 2. None of these calls reaches a timing run.
#
# Expects: -DBIN=<path to bench_engine_compare>

foreach(args "--perf-smok" "" "--perf-smoke;--figure-set-out=x.json")
    execute_process(COMMAND "${BIN}" ${args}
                    RESULT_VARIABLE rc
                    ERROR_VARIABLE err
                    OUTPUT_QUIET)
    if(NOT rc STREQUAL "2" OR NOT err MATCHES "usage: bench_engine_compare")
        message(FATAL_ERROR
                "bench_engine_compare '${args}': exit '${rc}', stderr:\n${err}")
    endif()
endforeach()
