# Multi-process smoke test for the query-serving role of
# `aggregate --listen` (run via ctest):
#
#   One `hbbp-tool aggregate --listen --timeout-ms 0` daemon co-hosts
#   shard ingestion and the analysis-query endpoint on the same port.
#   Three hosts push shards while a background query storm hammers the
#   daemon — every reply must be well-formed (early "no profile yet"
#   errors allowed). After each arrival wave the observed epoch must
#   advance, and the final mix/report/fdo payloads must be
#   byte-identical to offline `analyze`/`report`/`fdo` over the merge
#   of the same shards. A repeated identical query must come back
#   `cached=1` with identical bytes, and a `shutdown` query must stop
#   the daemon cleanly. The daemon's `-o` aggregate must equal that
#   merge too: one process is both the root and the query server.
#
#   The daemon and the hostA collector share one --event-log: every
#   query reply must carry per-stage `timing` metadata, and the served
#   query's trace span must join onto hostA's ingestion chain
#   (push_start -> push_acked -> root_fold -> query_serve), checked by
#   check_trace.py --serve.
#
#   Phase 2 restarts the daemon on the same --state and --store with
#   no new shard: mix and report must answer byte-identically from the
#   restored aggregate, and after a clean shutdown the store must hold
#   the three shards with no pin left behind. `store verify` must pass
#   on that store, and fail once one byte of one shard is flipped.
#
# Invoked as:
#   cmake -DHBBP_TOOL=<hbbp-tool> -DWORK_DIR=<scratch dir> \
#         -P cli_serve_smoke.cmake

cmake_minimum_required(VERSION 3.20)

if(NOT DEFINED HBBP_TOOL OR NOT DEFINED WORK_DIR)
    message(FATAL_ERROR "pass -DHBBP_TOOL=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(dump_logs)
    set(logs "")
    file(GLOB log_files "${WORK_DIR}/*.log")
    foreach(log_file IN LISTS log_files)
        file(READ "${log_file}" log)
        get_filename_component(log_name "${log_file}" NAME)
        string(APPEND logs "--- ${log_name} ---\n${log}")
    endforeach()
    set(ALL_LOGS "${logs}" PARENT_SCOPE)
endfunction()

# All orchestration (backgrounding, the query storm, waits) lives in
# one sh script because CMake cannot background processes itself.
# Query payloads go to stdout, the `epoch=N cached=B` metadata line to
# stderr — the script splits them per invocation.
set(serve_script "
dir='${WORK_DIR}'
tool='${HBBP_TOOL}'
q() { # q <name> <verb> [extra args...] -- query, split payload/meta
    name=$1; verb=$2; shift 2
    \"$tool\" query --from 127.0.0.1:$port \"$verb\" \"$@\" \\
        > \"$dir/$name.out\" 2> \"$dir/$name.meta\"
}
# daemon <port-file> <log> <profile-out>: start the serving root.
daemon() {
    \"$tool\" aggregate --listen 0 --timeout-ms 0 --port-file \"$dir/$1\" \\
        --state \"$dir/serve.state\" --store \"$dir/store\" -o \"$dir/$3\" \\
        --event-log \"$dir/events.jsonl\" > \"$dir/$2\" 2>&1 &
    servepid=$!
    i=0
    while [ ! -s \"$dir/$1\" ]; do
        i=$((i+1)); [ $i -gt 200 ] && echo 'daemon never published its port' && exit 1
        sleep 0.1
    done
    port=$(cat \"$dir/$1\")
}
daemon port serve.log served.profile

# The storm: loop mix+status queries for the whole ingestion window.
# Failures other than the pre-first-shard 'no profile to analyze yet'
# are fatal; count iterations so we know the storm actually overlapped.
storm() {
    n=0
    while [ ! -f \"$dir/storm.stop\" ]; do
        out=$(\"$tool\" query --from 127.0.0.1:$port mix 2>&1)
        rc=$?
        if [ $rc -ne 0 ]; then
            case \"$out\" in
                *'no profile to analyze yet'*) ;;
                *) echo \"storm query failed: $out\" > \"$dir/storm.fail\"; break ;;
            esac
        fi
        \"$tool\" query --from 127.0.0.1:$port status >/dev/null 2>&1
        n=$((n+1))
    done
    echo $n > \"$dir/storm.count\"
}
storm & stormpid=$!

# Shards arrive mid-storm; after each wave the epoch must have moved.
\"$tool\" push test40 --host hostA --to 127.0.0.1:$port --shards 2 \\
    --retries 20 --event-log \"$dir/events.jsonl\" \\
    -o \"$dir/a.profile\" > \"$dir/pushA.log\" 2>&1 || exit 1
q epoch1 status || exit 1
\"$tool\" push test40 --host hostB --to 127.0.0.1:$port --shards 3 \\
    --retries 20 -o \"$dir/b.profile\" > \"$dir/pushB.log\" 2>&1 &
pb=$!
\"$tool\" push test40 --host hostC --to 127.0.0.1:$port --shards 1 \\
    --retries 20 -o \"$dir/c.profile\" > \"$dir/pushC.log\" 2>&1 &
pc=$!
wait $pb || exit 1
wait $pc || exit 1

: > \"$dir/storm.stop\"
wait $stormpid
[ -f \"$dir/storm.fail\" ] && cat \"$dir/storm.fail\" && exit 1

# Post-arrival queries: all three verbs, plus the cached repeat and
# the csv rendering of the mix.
q mix mix || exit 1
q mix_again mix || exit 1
# A parameterization the storm never issued: provably cold, then cached.
q mix_cold mix --top 7 || exit 1
q mix_cold2 mix --top 7 || exit 1
q mix_csv mix --format csv || exit 1
q report report || exit 1
q fdo fdo || exit 1
q hosts hosts --format csv || exit 1
q status status || exit 1

# Clean daemon shutdown through the query protocol itself.
q shutdown shutdown || exit 1
wait $servepid || exit 1

# Phase 2: the same --state answers without a single new push.
daemon port2 serve2.log served2.profile
q mix2 mix || exit 1
q report2 report || exit 1
q shutdown2 shutdown || exit 1
wait $servepid || exit 1
\"$tool\" store stat --store \"$dir/store\" > \"$dir/store_stat.out\" || exit 1
\"$tool\" store verify --store \"$dir/store\" > \"$dir/store_verify.out\" || exit 1
# Flip one byte of one shard's payload: verify must now exit 1.
f=$(ls \"$dir\"/store/shard-*.hbbp | head -n 1)
off=$(( $(wc -c < \"$f\") - 1 ))
v=$(od -An -tu1 -j $off -N 1 \"$f\")
printf \"\\\\$(printf %o $(( v ^ 255 )))\" |
    dd of=\"$f\" bs=1 seek=$off count=1 conv=notrunc 2>/dev/null || exit 1
\"$tool\" store verify --store \"$dir/store\" > \"$dir/store_flipped.out\" \\
    2> \"$dir/store_flipped.log\"
rc=$?
[ $rc -eq 1 ] || { echo \"store verify of a flipped byte exited $rc\"; exit 1; }
exit 0
")
execute_process(COMMAND sh -c "${serve_script}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    dump_logs()
    message(FATAL_ERROR "serve smoke orchestration failed (exit ${rc})\n${ALL_LOGS}")
endif()

# The storm must actually have run queries concurrently with ingestion.
file(READ "${WORK_DIR}/storm.count" storm_count)
string(STRIP "${storm_count}" storm_count)
if(storm_count LESS 3)
    message(FATAL_ERROR "query storm barely ran (${storm_count} iterations)")
endif()

# Epoch progression: one shard in at the first probe, three by the end.
file(READ "${WORK_DIR}/epoch1.meta" epoch1_meta)
if(NOT epoch1_meta MATCHES "epoch=1 ")
    message(FATAL_ERROR "expected epoch=1 after the first shard: ${epoch1_meta}")
endif()
file(READ "${WORK_DIR}/status.meta" status_meta)
if(NOT status_meta MATCHES "epoch=3 ")
    message(FATAL_ERROR "expected epoch=3 after three shards: ${status_meta}")
endif()
file(READ "${WORK_DIR}/status.out" status_out)
if(NOT status_out MATCHES "hosts=3")
    message(FATAL_ERROR "status does not report 3 hosts: ${status_out}")
endif()

# Cold vs cached: the --top 7 parameterization was never issued by the
# storm, so its first serve must miss and its repeat must hit. (The
# plain mix may already be warm — the storm itself cached it.)
file(READ "${WORK_DIR}/mix_cold.meta" mix_cold_meta)
if(NOT mix_cold_meta MATCHES "epoch=3 cached=0")
    message(FATAL_ERROR "never-issued query should be uncached: ${mix_cold_meta}")
endif()
file(READ "${WORK_DIR}/mix_cold2.meta" mix_cold2_meta)
if(NOT mix_cold2_meta MATCHES "epoch=3 cached=1")
    message(FATAL_ERROR "repeated query should be epoch-cached: ${mix_cold2_meta}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${WORK_DIR}/mix_cold.out" "${WORK_DIR}/mix_cold2.out"
    RESULT_VARIABLE differs_cold)
if(differs_cold)
    message(FATAL_ERROR "cached --top 7 repeat returned different bytes")
endif()
file(READ "${WORK_DIR}/mix_again.meta" mix_again_meta)
if(NOT mix_again_meta MATCHES "epoch=3 cached=1")
    message(FATAL_ERROR "repeated mix should be epoch-cached: ${mix_again_meta}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${WORK_DIR}/mix.out" "${WORK_DIR}/mix_again.out"
    RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR "cached repeat returned different bytes")
endif()

# Per-query server timing: every reply reports all four stages, on the
# cold serve and on the cached repeat alike.
if(NOT mix_cold_meta MATCHES "timing parse=[0-9]+ns cache=[0-9]+ns analysis=[0-9]+ns render=[0-9]+ns")
    message(FATAL_ERROR "cold query meta lacks timing headers: ${mix_cold_meta}")
endif()
if(NOT mix_cold2_meta MATCHES "timing parse=[0-9]+ns cache=[0-9]+ns analysis=[0-9]+ns render=[0-9]+ns")
    message(FATAL_ERROR "cached query meta lacks timing headers: ${mix_cold2_meta}")
endif()

# The query's trace span joins its shard's ingestion chain: the reply
# names a trace id, and check_trace.py must find its query_serve span
# after hostA's push_start/push_acked/root_fold in the shared event log.
if(NOT mix_cold_meta MATCHES "trace=(query-root-[0-9]+)")
    message(FATAL_ERROR "cold query meta lacks a trace id: ${mix_cold_meta}")
endif()
set(query_trace "${CMAKE_MATCH_1}")
execute_process(COMMAND python3 "${CMAKE_CURRENT_LIST_DIR}/check_trace.py"
    "${WORK_DIR}/events.jsonl" hostA --serve --query-trace "${query_trace}"
    RESULT_VARIABLE trace_rc OUTPUT_VARIABLE trace_out ERROR_VARIABLE trace_err)
if(NOT trace_rc EQUAL 0)
    message(FATAL_ERROR "query trace join failed: ${trace_out}${trace_err}")
endif()
message(STATUS "${trace_out}")

# hosts: every pusher visible as a fully-covered slice.
file(READ "${WORK_DIR}/hosts.out" hosts_out)
foreach(host hostA hostB hostC)
    if(NOT hosts_out MATCHES "${host},1,0")
        message(FATAL_ERROR "missing ${host} slice in hosts query: ${hosts_out}")
    endif()
endforeach()

# Byte-identity against the offline pipeline over the same shards: the
# daemon's mix/report/fdo answers must equal analyze/report/fdo over
# the local merge of the pushed profiles.
execute_process(COMMAND "${HBBP_TOOL}" merge -o "${WORK_DIR}/merged.profile"
    "${WORK_DIR}/a.profile" "${WORK_DIR}/b.profile" "${WORK_DIR}/c.profile"
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "offline merge failed (exit ${rc})")
endif()
foreach(pair
        "mix;analyze"
        "mix_csv;analyze;--format;csv"
        "report;report"
        "fdo;fdo")
    list(GET pair 0 qname)
    list(GET pair 1 command)
    set(extra "")
    list(LENGTH pair pair_len)
    if(pair_len GREATER 2)
        list(SUBLIST pair 2 -1 extra)
    endif()
    execute_process(
        COMMAND "${HBBP_TOOL}" ${command} test40
            -i "${WORK_DIR}/merged.profile" ${extra}
        OUTPUT_FILE "${WORK_DIR}/offline_${qname}.out"
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "offline ${command} failed (exit ${rc})")
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
        "${WORK_DIR}/${qname}.out" "${WORK_DIR}/offline_${qname}.out"
        RESULT_VARIABLE differs)
    if(differs)
        message(FATAL_ERROR
            "served ${qname} is not byte-identical to offline ${command}")
    endif()
endforeach()

# The daemon's exit summary reflects the storm it survived.
file(READ "${WORK_DIR}/serve.log" serve_log)
if(NOT serve_log MATCHES "aggregate: accepted=3 ")
    message(FATAL_ERROR "unexpected serve summary: ${serve_log}")
endif()
if(NOT serve_log MATCHES " epoch=3 ")
    message(FATAL_ERROR "serve summary should end at epoch 3: ${serve_log}")
endif()

# Root == flat merge, from the same process that answered the queries;
# the restarted daemon saves the same bytes from its restored state.
foreach(served served.profile served2.profile)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
        "${WORK_DIR}/${served}" "${WORK_DIR}/merged.profile"
        RESULT_VARIABLE differs)
    if(differs)
        message(FATAL_ERROR "daemon -o ${served} is not byte-identical to the merge")
    endif()
endforeach()

# Phase 2: answers from the restored state equal phase 1's.
file(READ "${WORK_DIR}/serve2.log" serve2_log)
# (accepted counts the restored shards: nothing new arrived.)
if(NOT serve2_log MATCHES "aggregate: accepted=3 .* restored=3 hosts=3 ")
    message(FATAL_ERROR "restarted daemon did not restore 3 shards: ${serve2_log}")
endif()
foreach(qname mix report)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
        "${WORK_DIR}/${qname}.out" "${WORK_DIR}/${qname}2.out"
        RESULT_VARIABLE differs)
    if(differs)
        message(FATAL_ERROR "restored ${qname} differs from phase 1's")
    endif()
endforeach()

# Each shard is in the store once, and a clean exit leaves no pin.
file(READ "${WORK_DIR}/store_stat.out" store_stat)
if(NOT store_stat MATCHES "shard_entries=3 .* pinned=0 pin_owners=0")
    message(FATAL_ERROR "unexpected store after shutdown: ${store_stat}")
endif()
# Every deposit loads and hashes to its name, until one byte flips.
file(READ "${WORK_DIR}/store_verify.out" store_verify)
if(NOT store_verify MATCHES "checked=3 checksum_mismatches=0 ok")
    message(FATAL_ERROR "store verify failed on the filled store: ${store_verify}")
endif()
file(READ "${WORK_DIR}/store_flipped.out" store_flipped)
if(NOT store_flipped MATCHES "checksum_mismatches=1 NOT OK")
    message(FATAL_ERROR "store verify missed a flipped byte: ${store_flipped}")
endif()

message(STATUS "serve smoke OK: ${storm_count}-iteration query storm over live ingestion; epoch 1->3 observed; mix/csv/report/fdo byte-identical to offline; cached repeat identical; query timing + trace join checked; -o == merge; restart on --state answers identically; store holds 3 shards, no pins, verify catches a flipped byte; clean shutdown")
