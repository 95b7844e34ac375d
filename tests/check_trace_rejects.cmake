# Negative controls for check_trace.py (run via ctest): the chain
# checker must accept one intact collector -> relay -> root span chain
# and reject two chains cut from it — one whose root_fold precedes its
# push_start by a single microsecond, and one without its relay_flush.
# The intact chain also carries a record without a trace id (a plain
# event), which the checker must skip.
#
# Invoked as:
#   cmake -DWORK_DIR=<scratch dir> -P check_trace_rejects.cmake

cmake_minimum_required(VERSION 3.20)

if(NOT DEFINED WORK_DIR)
    message(FATAL_ERROR "pass -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(intact [=[
{"ts_us":1000100,"level":"info","code":"push_start","node":"collector:hostA","fields":{"trace":"hostA-0-1","seq":"0"}}
{"ts_us":1000150,"level":"warn","code":"push_retry","node":"relay1","fields":{"attempt":"1","error":"connection refused"}}
{"ts_us":1000200,"level":"info","code":"relay_accept","node":"relay1","fields":{"trace":"hostA-0-1","from":"hostA"}}
{"ts_us":1000250,"level":"info","code":"push_acked","node":"collector:hostA","fields":{"trace":"hostA-0-1","attempts":"1","duplicate":"0"}}
{"ts_us":1000300,"level":"info","code":"relay_flush","node":"relay1","fields":{"trace":"hostA-0-1","aggregate":"relay1-0-2"}}
{"ts_us":1000400,"level":"info","code":"root_fold","node":"root","fields":{"trace":"hostA-0-1","from":"relay1"}}
]=])
string(REPLACE [=["ts_us":1000400]=] [=["ts_us":1000099]=]
    backwards "${intact}")
string(REGEX REPLACE "[^\n]*relay_flush[^\n]*\n" "" no_flush "${intact}")

# chain;expected exit (0 = accepted);what a rejection must name
foreach(case "intact;0;" "backwards;1;precedes" "no_flush;1;missing span 'relay_flush'")
    list(GET case 0 chain)
    list(GET case 1 want_fail)
    list(GET case 2 reason)
    file(WRITE "${WORK_DIR}/${chain}.jsonl" "${${chain}}")
    execute_process(COMMAND python3 "${CMAKE_CURRENT_LIST_DIR}/check_trace.py"
        "${WORK_DIR}/${chain}.jsonl" hostA
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(want_fail AND rc EQUAL 0)
        message(FATAL_ERROR "check_trace.py accepted the ${chain} chain: ${out}")
    endif()
    if(NOT want_fail AND NOT rc EQUAL 0)
        message(FATAL_ERROR "check_trace.py rejected the ${chain} chain: ${out}${err}")
    endif()
    if(want_fail AND NOT err MATCHES "${reason}")
        message(FATAL_ERROR "the ${chain} chain failed for another reason: ${out}${err}")
    endif()
endforeach()

message(STATUS "check_trace rejects OK: intact chain accepted; a 1us-backwards root_fold and a missing relay_flush rejected")
