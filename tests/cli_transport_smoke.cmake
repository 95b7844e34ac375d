# Multi-process smoke test for the socket shard transport (run via
# ctest):
#
#   Phase 1: three hbbp-tool push senders run CONCURRENTLY against one
#   `aggregate --listen` process. One sender (hostB) is SIGKILLed while
#   it waits for its ack (the aggregator is SIGSTOPped, so no ack can
#   come), then retried once the aggregator runs again. The retry
#   resends the whole frame: it is a duplicate exactly when the killed
#   push's frame had arrived whole. hostA and hostC push meanwhile and
#   may time out waiting for an ack and resend too, so the `duplicate`
#   markers of all three pushes must add up to the aggregator's
#   `duplicates=`. A `shutdown` query stops the aggregator, which
#   stays up for the retry. The aggregate must be byte-identical to a
#   single-run `hbbp-tool merge` of the same shards.
#
#   Phase 2: an aggregator with --state is killed (SIGKILL) after two
#   accepted shards — its per-accept checkpoint is the only survivor —
#   and a restarted aggregator with the same --state resumes from the
#   cached partials (restored=2 in the import-count stats, only hostC
#   is newly imported) and produces the same bytes again. Both runs
#   deposit into one --store: after the clean exit it must hold the
#   three shards with no pin left behind, `store verify` must pass on
#   it, and fail once one byte of one shard is flipped. Between the two runs a push
#   with --event-log to the killed aggregator's port must fail, and
#   its log must hold the collector's push_start and push_retry.
#
# Invoked as:
#   cmake -DHBBP_TOOL=<hbbp-tool> -DWORK_DIR=<scratch dir> \
#         -P cli_transport_smoke.cmake

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

# --- phase 1: three concurrent pushers, one killed and retried ------------
# The listener picks an ephemeral port and reports it through
# --port-file; every sender waits for that file. All orchestration
# (backgrounding, wait, exit codes) lives in one sh script because
# CMake cannot background processes itself.
set(phase1_script "
dir='${WORK_DIR}'
tool='${HBBP_TOOL}'
\"$tool\" aggregate --listen 0 --port-file \"$dir/port1\" \\
    --timeout-ms 120000 -o \"$dir/agg1.profile\" > \"$dir/agg1.log\" 2>&1 &
aggpid=$!
i=0
while [ ! -s \"$dir/port1\" ]; do
    i=$((i+1)); [ $i -gt 200 ] && echo 'listener never published its port' && exit 1
    sleep 0.1
done
port=$(cat \"$dir/port1\")
\"$tool\" push test40 --host hostA --to 127.0.0.1:$port --shards 2 \\
    --retries 20 -o \"$dir/a.profile\" > \"$dir/pushA.log\" 2>&1 &
pa=$!
\"$tool\" push test40 --host hostC --to 127.0.0.1:$port --shards 1 \\
    --retries 20 -o \"$dir/c.profile\" > \"$dir/pushC.log\" 2>&1 &
pc=$!
# hostB's push can send, but never be acknowledged: kill it while it
# waits. Its push_start is logged after the collection, just before it
# connects and sends.
kill -STOP $aggpid
\"$tool\" push test40 --host hostB --to 127.0.0.1:$port --shards 3 \\
    --retries 1 --event-log \"$dir/pushB_crash.events\" \\
    > \"$dir/pushB_crash.log\" 2>&1 &
pb=$!
i=0
until grep -q push_start \"$dir/pushB_crash.events\" 2>/dev/null; do
    i=$((i+1))
    if [ $i -gt 600 ]; then
        echo 'the killed push never started sending'
        kill -CONT $aggpid; kill -9 $pb; exit 1
    fi
    sleep 0.1
done
sleep 1
kill -9 $pb
wait $pb
crash_rc=$?
kill -CONT $aggpid
rc=0
if [ $crash_rc -ne 137 ]; then
    echo \"expected the killed sender to die of SIGKILL, got $crash_rc\"
    rc=1
fi
wait $pa || rc=1
wait $pc || rc=1
# The retry: same host, same seq, same collection — the same frame.
\"$tool\" push test40 --host hostB --to 127.0.0.1:$port --shards 3 \\
    --retries 20 -o \"$dir/b.profile\" > \"$dir/pushB.log\" 2>&1 || rc=1
\"$tool\" query --from 127.0.0.1:$port shutdown > \"$dir/shutdown1.out\" \\
    2>&1 || rc=1
wait $aggpid || rc=1
exit $rc
")
execute_process(COMMAND sh -c "${phase1_script}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    dump_logs()
    message(FATAL_ERROR "phase 1 (concurrent pushes) failed (exit ${rc})\n${ALL_LOGS}")
endif()

# hostB's retry was a duplicate exactly when the killed push's frame
# was folded before the kill. hostA's and hostC's pushes may have
# outwaited their ack timeout while the aggregator was stopped; a
# resend whose first frame was folded on SIGCONT is a duplicate too.
# Either way, three shards were accepted, and every duplicate the
# aggregator counted is one a push reported.
set(push_duplicates 0)
set(push_logs "")
foreach(push IN ITEMS pushA pushB pushC)
    file(READ "${WORK_DIR}/${push}.log" push_log)
    string(APPEND push_logs "--- ${push}.log ---\n${push_log}")
    if(push_log MATCHES ", duplicate\\)")
        math(EXPR push_duplicates "${push_duplicates} + 1")
    endif()
endforeach()
file(READ "${WORK_DIR}/agg1.log" agg1_log)
if(NOT agg1_log MATCHES "accepted=3 duplicates=${push_duplicates} incompatible=0 malformed=0")
    message(FATAL_ERROR "aggregate stats disagree with the pushes' duplicate markers (${push_duplicates}): ${agg1_log}\n${push_logs}")
endif()
if(NOT agg1_log MATCHES "hosts=3")
    message(FATAL_ERROR "expected 3 hosts: ${agg1_log}")
endif()

# Byte-identical to a one-shot merge in canonical host order.
execute_process(COMMAND "${HBBP_TOOL}" merge -o "${WORK_DIR}/merged.profile"
    "${WORK_DIR}/a.profile" "${WORK_DIR}/b.profile" "${WORK_DIR}/c.profile"
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "merge failed (exit ${rc})")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${WORK_DIR}/agg1.profile" "${WORK_DIR}/merged.profile"
    RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR "pushed aggregate is not byte-identical to the single-run merge")
endif()

# --- phase 2: kill the aggregator mid-run, resume from --state ------------
# A push only returns success after its shard is accepted AND the
# per-accept state checkpoint was written (the ack is sent last), so
# once both pushes return, SIGKILL leaves a state file covering
# exactly hostA and hostB.
set(phase2_script "
dir='${WORK_DIR}'
tool='${HBBP_TOOL}'
\"$tool\" aggregate --listen 0 --port-file \"$dir/port2\" \\
    --state \"$dir/agg.state\" --store \"$dir/store\" --expect 99 \\
    --timeout-ms 120000 > \"$dir/agg2a.log\" 2>&1 &
aggpid=$!
i=0
while [ ! -s \"$dir/port2\" ]; do
    i=$((i+1)); [ $i -gt 200 ] && echo 'listener never published its port' && exit 1
    sleep 0.1
done
port=$(cat \"$dir/port2\")
\"$tool\" push test40 --host hostA --to 127.0.0.1:$port --shards 2 \\
    --retries 20 > \"$dir/push2A.log\" 2>&1 || exit 1
\"$tool\" push test40 --host hostB --to 127.0.0.1:$port --shards 3 \\
    --retries 20 > \"$dir/push2B.log\" 2>&1 || exit 1
kill -9 $aggpid 2>/dev/null
wait $aggpid 2>/dev/null
# Nothing listens there now: the push gives up after two attempts.
if \"$tool\" push test40 --host hostD --to 127.0.0.1:$port --retries 2 \\
    --event-log \"$dir/dead_push.events\" > \"$dir/push2dead.log\" 2>&1; then
    echo 'push to the killed aggregator succeeded'
    exit 1
fi
# The restarted aggregator resumes from the checkpointed partials and
# only needs hostC to finish the fleet.
\"$tool\" aggregate --listen 0 --port-file \"$dir/port3\" \\
    --state \"$dir/agg.state\" --store \"$dir/store\" --expect 3 \\
    --timeout-ms 120000 -o \"$dir/agg2.profile\" > \"$dir/agg2b.log\" 2>&1 &
agg2pid=$!
i=0
while [ ! -s \"$dir/port3\" ]; do
    i=$((i+1)); [ $i -gt 200 ] && echo 'restarted listener never published its port' && exit 1
    sleep 0.1
done
port=$(cat \"$dir/port3\")
\"$tool\" push test40 --host hostC --to 127.0.0.1:$port --shards 1 \\
    --retries 20 > \"$dir/push2C.log\" 2>&1 || exit 1
wait $agg2pid || exit 1
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
execute_process(COMMAND sh -c "${phase2_script}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    dump_logs()
    message(FATAL_ERROR "phase 2 (kill + resume) failed (exit ${rc})\n${ALL_LOGS}")
endif()

file(READ "${WORK_DIR}/agg2b.log" agg2_log)
# The import-count proof of resumption: two shards were restored from
# state (not re-imported), exactly one was newly accepted on top.
if(NOT agg2_log MATCHES "restored aggregator state from .* 2 shards across 2 hosts")
    message(FATAL_ERROR "restarted aggregator did not restore state: ${agg2_log}")
endif()
if(NOT agg2_log MATCHES "accepted=3 duplicates=0 incompatible=0 malformed=0")
    message(FATAL_ERROR "unexpected resumed aggregate stats: ${agg2_log}")
endif()
if(NOT agg2_log MATCHES "restored=2")
    message(FATAL_ERROR "expected restored=2 in the stats line: ${agg2_log}")
endif()

# The resumed run yields the same bytes as phase 1's uninterrupted run.
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${WORK_DIR}/agg2.profile" "${WORK_DIR}/merged.profile"
    RESULT_VARIABLE differs2)
if(differs2)
    message(FATAL_ERROR "resumed aggregate is not byte-identical to the single-run merge")
endif()

# The failed push logged its start and its retry as the collector.
execute_process(COMMAND "${HBBP_TOOL}" events
    --from "${WORK_DIR}/dead_push.events"
    RESULT_VARIABLE ev_rc OUTPUT_VARIABLE ev_out ERROR_VARIABLE ev_err)
if(NOT ev_rc EQUAL 0)
    message(FATAL_ERROR "events --from dead_push.events failed: ${ev_out}${ev_err}")
endif()
foreach(code push_start push_retry)
    if(NOT ev_out MATCHES "${code} node=collector:hostD ")
        message(FATAL_ERROR "no ${code} from collector:hostD: ${ev_out}")
    endif()
endforeach()

# Both runs pinned under the owner their shared --state names; the
# restart's clean exit removed that owner's pin file.
file(READ "${WORK_DIR}/store_stat.out" store_stat)
if(NOT store_stat MATCHES "shard_entries=3 .* pinned=0 pin_owners=0")
    message(FATAL_ERROR "unexpected store after the resumed run: ${store_stat}")
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

message(STATUS "transport smoke OK: 3 concurrent pushes (one killed before its ack + retry, duplicates=${retry_duplicates}) -> byte-identical aggregate; kill -9 + --state resume -> same bytes, no pins left, store verify catches a flipped byte")
