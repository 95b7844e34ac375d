# Multi-process smoke test for the distributed aggregation workflow
# (run via ctest):
#
#   three hbbp-tool export processes run CONCURRENTLY as simulated
#   hosts dropping shards into one directory; a separate hbbp-tool
#   aggregate process watches the directory and folds the shards as
#   they are found. The aggregate must be byte-identical to a
#   single-run `hbbp-tool merge` of the same shards in canonical (host)
#   order, and a duplicate delivery must be detected by checksum
#   without changing the result.
#
# Invoked as:
#   cmake -DHBBP_TOOL=<hbbp-tool> -DWORK_DIR=<scratch dir> \
#         -P cli_distributed_smoke.cmake

cmake_minimum_required(VERSION 3.20)

if(NOT DEFINED HBBP_TOOL OR NOT DEFINED WORK_DIR)
    message(FATAL_ERROR "pass -DHBBP_TOOL=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(DROP_DIR "${WORK_DIR}/drop")
file(MAKE_DIRECTORY "${DROP_DIR}")

function(run out_var)
    execute_process(COMMAND ${ARGN}
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "command failed (exit ${rc}): ${ARGN}\n${out}\n${err}")
    endif()
    set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# --- three hosts export concurrently ---------------------------------------
# Launch all three export processes at once (backgrounded, each with
# its own log so no process writes into another's pipe) and wait for
# every one: the exports genuinely race on the drop directory.
# Chaining COMMAND clauses in one execute_process would also run them
# concurrently, but as a *pipeline* — a fast downstream process exiting
# early SIGPIPEs an upstream one mid-status-line (seen under TSan).
set(export_script "
'${HBBP_TOOL}' export test40 --host hostB --export-dir '${DROP_DIR}' > '${WORK_DIR}/export_hostB.log' 2>&1 &
pidB=$!
'${HBBP_TOOL}' export test40 --host hostC --export-dir '${DROP_DIR}' > '${WORK_DIR}/export_hostC.log' 2>&1 &
pidC=$!
'${HBBP_TOOL}' export test40 --host hostA --export-dir '${DROP_DIR}' > '${WORK_DIR}/export_hostA.log' 2>&1 &
pidA=$!
rc=0
wait $pidB || rc=1
wait $pidC || rc=1
wait $pidA || rc=1
exit $rc
")
execute_process(COMMAND sh -c "${export_script}"
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    set(logs "")
    foreach(host hostA hostB hostC)
        file(READ "${WORK_DIR}/export_${host}.log" log)
        string(APPEND logs "--- ${host} ---\n${log}")
    endforeach()
    message(FATAL_ERROR "concurrent export failed (exit ${rc})\n${logs}")
endif()

foreach(host hostA hostB hostC)
    file(GLOB manifests "${DROP_DIR}/${host}-*.manifest")
    list(LENGTH manifests n)
    if(NOT n EQUAL 1)
        message(FATAL_ERROR "expected one manifest for ${host}, found: ${manifests}")
    endif()
    file(GLOB profile_${host} "${DROP_DIR}/${host}-*.hbbp")
endforeach()

# --- aggregate the drop directory ------------------------------------------
run(agg_out "${HBBP_TOOL}" aggregate --watch-dir "${DROP_DIR}"
    --expect 3 --timeout-ms 60000
    --store "${WORK_DIR}/central_store" -o agg.profile)
if(NOT agg_out MATCHES "accepted=3 duplicates=0 incompatible=0 malformed=0")
    message(FATAL_ERROR "unexpected aggregate stats: ${agg_out}")
endif()
if(NOT agg_out MATCHES "hosts=3")
    message(FATAL_ERROR "expected 3 hosts: ${agg_out}")
endif()

# Every accepted shard was deposited into the central store.
file(GLOB central_shards "${WORK_DIR}/central_store/shard-*.hbbp")
list(LENGTH central_shards n_central)
if(NOT n_central EQUAL 3)
    message(FATAL_ERROR "expected 3 shards in the central store, found: ${central_shards}")
endif()

# --- byte-identical to a single-run merge in canonical host order ----------
run(merge_out "${HBBP_TOOL}" merge -o merged.profile
    "${profile_hostA}" "${profile_hostB}" "${profile_hostC}")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${WORK_DIR}/agg.profile" "${WORK_DIR}/merged.profile"
    RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR "aggregate is not byte-identical to the single-run merge")
endif()

# --- duplicate delivery: same payload under a new name ---------------------
# Re-deliver hostA's shard as if another host had copied it: write a
# fresh manifest (exercising the text format from outside the library)
# pointing at a copy of the same profile. The aggregator must detect
# the duplicate by checksum and produce the identical aggregate.
file(GLOB hostA_manifest "${DROP_DIR}/hostA-*.manifest")
file(READ ${hostA_manifest} manifest_text)
if(NOT manifest_text MATCHES "options=([0-9a-f]+)")
    message(FATAL_ERROR "cannot parse options from: ${manifest_text}")
endif()
set(dup_options "${CMAKE_MATCH_1}")
if(NOT manifest_text MATCHES "checksum=([0-9a-f]+)")
    message(FATAL_ERROR "cannot parse checksum from: ${manifest_text}")
endif()
set(dup_checksum "${CMAKE_MATCH_1}")
execute_process(COMMAND ${CMAKE_COMMAND} -E copy
    "${profile_hostA}" "${DROP_DIR}/hostZ-dup.hbbp")
file(WRITE "${DROP_DIR}/hostZ-dup.manifest"
"hbbp-shard-manifest 1
host=hostZ
workload=test40
seq=0
options=${dup_options}
checksum=${dup_checksum}
profile=hostZ-dup.hbbp
status=complete
")

run(agg2_out "${HBBP_TOOL}" aggregate --watch-dir "${DROP_DIR}"
    --expect 3 --timeout-ms 60000 -o agg2.profile)
if(NOT agg2_out MATCHES "accepted=3 duplicates=1")
    message(FATAL_ERROR "duplicate delivery not detected: ${agg2_out}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${WORK_DIR}/agg2.profile" "${WORK_DIR}/merged.profile"
    RESULT_VARIABLE differs2)
if(differs2)
    message(FATAL_ERROR "aggregate changed after a duplicate delivery")
endif()

# --- the aggregate analyzes like any other profile -------------------------
run(out "${HBBP_TOOL}" analyze test40 -i agg.profile --pivot isa --csv)

message(STATUS "distributed smoke OK: 3 concurrent hosts -> byte-identical aggregate, duplicates rejected")
