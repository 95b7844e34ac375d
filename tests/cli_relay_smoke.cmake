# Multi-process smoke test for hierarchical relay aggregation (run via
# ctest):
#
#   Phase 1: a depth-2 fan-in tree — four hbbp-tool push collectors ->
#   two relay processes -> one `aggregate --listen` root. The root
#   aggregate must be byte-identical to a flat single-run
#   `hbbp-tool merge` of the same four shards, and the root must report
#   exactly two aggregate arrivals covering four hosts. Each relay's
#   --metrics-port endpoint is scraped live (after its first accept,
#   while it waits for its second) and must report exactly one folded
#   shard; every process appends to one --event-log, check_trace.py
#   must reconstruct hostA's complete collector -> relay -> root span
#   chain with monotonic timestamps from it, and `hbbp-tool events`
#   must list those spans.
#
#   Phase 2: the same tree, but relay1 runs with --state and
#   --flush-every 1 and is SIGKILLed after accepting (and flushing)
#   hostA. The restarted relay1 resumes from its journaled state
#   (restored=1), takes hostB, and its final flush supersedes the
#   earlier partial one at the root. The root runs with --state too:
#   it is SIGKILLed after that superseding flush and restarted
#   (restored=2: both flushes replay), relay2 feeds the restarted root,
#   and it ends byte-identical to the flat merge again. A third start
#   on the same --state restores only the two live flushes (the
#   restart dropped the superseded one from its log) and saves the
#   same bytes.
#
#   Phase 3: the health plane over the same depth-2 tree. Relays run
#   --flush-every 1 so their metrics endpoints ride the first flushed
#   aggregate up to the root; one root scrape must then return both
#   children's series peer-labeled plus the subtree rollup, and
#   `stats --tree` must render the fleet from that single endpoint.
#   healthz reads live on all three daemons mid-run; SIGSTOPping relay1
#   turns the root degraded (child_stale in its event log), SIGCONT
#   recovers it (child_recovered), and `hbbp-tool events` filters both
#   out of the --event-log file. The tree still ends byte-identical to
#   the flat merge.
#
# Invoked as:
#   cmake -DHBBP_TOOL=<hbbp-tool> -DWORK_DIR=<scratch dir> \
#         -P cli_relay_smoke.cmake

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

# --- phase 1: 4 collectors -> 2 relays -> 1 root, all concurrent ----------
# Every process discovers its upstream through a port file; the shell
# script holds the orchestration because CMake cannot background.
set(phase1_script "
dir='${WORK_DIR}'
tool='${HBBP_TOOL}'
waitport() {
    i=0
    while [ ! -s \"$1\" ]; do
        i=$((i+1)); [ $i -gt 200 ] && echo \"$1 never appeared\" && exit 1
        sleep 0.1
    done
}
evlog=\"$dir/events.jsonl\"
\"$tool\" aggregate --listen 0 --port-file \"$dir/root1.port\" --expect 4 \\
    --timeout-ms 120000 -o \"$dir/root1.profile\" --event-log \"$evlog\" \\
    > \"$dir/root1.log\" 2>&1 &
rootpid=$!
waitport \"$dir/root1.port\"
rp=$(cat \"$dir/root1.port\")
\"$tool\" relay --listen 0 --port-file \"$dir/r1.port\" --to 127.0.0.1:$rp \\
    --relay-id relay1 --expect 2 --timeout-ms 120000 \\
    --metrics-port 0 --metrics-port-file \"$dir/r1.mport\" \\
    --event-log \"$evlog\" > \"$dir/r1.log\" 2>&1 &
r1pid=$!
\"$tool\" relay --listen 0 --port-file \"$dir/r2.port\" --to 127.0.0.1:$rp \\
    --relay-id relay2 --expect 2 --timeout-ms 120000 \\
    --metrics-port 0 --metrics-port-file \"$dir/r2.mport\" \\
    --event-log \"$evlog\" > \"$dir/r2.log\" 2>&1 &
r2pid=$!
waitport \"$dir/r1.port\"
waitport \"$dir/r2.port\"
waitport \"$dir/r1.mport\"
waitport \"$dir/r2.mport\"
p1=$(cat \"$dir/r1.port\")
p2=$(cat \"$dir/r2.port\")
# hostA lands first; relay1 then waits for its second shard, which is
# the window to scrape its live metrics endpoint: exactly one shard
# folded so far. Same dance on relay2 with hostC. hostB/hostD then
# push concurrently with each other.
\"$tool\" push test40 --host hostA --to 127.0.0.1:$p1 --retries 20 \\
    --event-log \"$evlog\" -o \"$dir/a.profile\" > \"$dir/pushA.log\" 2>&1 \\
    || exit 1
\"$tool\" stats --from 127.0.0.1:$(cat \"$dir/r1.mport\") \\
    > \"$dir/metrics_r1.txt\" 2> \"$dir/scrape1.log\" || exit 1
\"$tool\" push test40 --host hostB --to 127.0.0.1:$p1 --retries 20 \\
    --event-log \"$evlog\" -o \"$dir/b.profile\" > \"$dir/pushB.log\" 2>&1 &
pb=$!
\"$tool\" push test40 --host hostC --to 127.0.0.1:$p2 --retries 20 \\
    --event-log \"$evlog\" -o \"$dir/c.profile\" > \"$dir/pushC.log\" 2>&1 \\
    || exit 1
\"$tool\" stats --from 127.0.0.1:$(cat \"$dir/r2.mport\") \\
    > \"$dir/metrics_r2.txt\" 2> \"$dir/scrape2.log\" || exit 1
\"$tool\" push test40 --host hostD --to 127.0.0.1:$p2 --retries 20 \\
    --event-log \"$evlog\" -o \"$dir/d.profile\" > \"$dir/pushD.log\" 2>&1 &
pd=$!
rc=0
wait $pb || rc=1
wait $pd || rc=1
wait $r1pid || rc=1
wait $r2pid || rc=1
wait $rootpid || rc=1
exit $rc
")
execute_process(COMMAND sh -c "${phase1_script}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    dump_logs()
    message(FATAL_ERROR "phase 1 (depth-2 tree) failed (exit ${rc})\n${ALL_LOGS}")
endif()

file(READ "${WORK_DIR}/root1.log" root1_log)
# The tree's signature: two aggregate arrivals covering four hosts.
if(NOT root1_log MATCHES "accepted=2 duplicates=0 incompatible=0 malformed=0")
    message(FATAL_ERROR "unexpected phase-1 root stats: ${root1_log}")
endif()
if(NOT root1_log MATCHES "hosts=4 covered=4 aggregates=2")
    message(FATAL_ERROR "expected 2 aggregates covering 4 hosts: ${root1_log}")
endif()

# Live metrics: each relay was scraped after its first accept and
# before its second, so the folded-shard counter must read exactly 1 —
# the counters track the tree's topology, not just "something moved".
foreach(relay r1 r2)
    file(READ "${WORK_DIR}/metrics_${relay}.txt" scraped)
    if(NOT scraped MATCHES "# TYPE hbbp_agg_shards_folded_total counter")
        message(FATAL_ERROR "${relay} scrape is not Prometheus text:\n${scraped}")
    endif()
    if(NOT scraped MATCHES "hbbp_agg_shards_folded_total 1[\r\n]")
        message(FATAL_ERROR "${relay} had not folded exactly 1 shard at scrape time:\n${scraped}")
    endif()
endforeach()

# The shared event log must reconstruct hostA's full lifecycle:
# push_start/push_acked at the collector, relay_accept/relay_flush at
# relay1, root_fold at the root, with monotonic timestamps.
execute_process(COMMAND python3 "${CMAKE_CURRENT_LIST_DIR}/check_trace.py"
    "${WORK_DIR}/events.jsonl" hostA
    RESULT_VARIABLE trace_rc OUTPUT_VARIABLE trace_out ERROR_VARIABLE trace_err)
if(NOT trace_rc EQUAL 0)
    message(FATAL_ERROR "trace reconstruction failed: ${trace_out}${trace_err}")
endif()
message(STATUS "${trace_out}")
# The spans are ordinary records to the one reader.
execute_process(COMMAND "${HBBP_TOOL}" events --from "${WORK_DIR}/events.jsonl"
    RESULT_VARIABLE ev_rc OUTPUT_VARIABLE ev_out ERROR_VARIABLE ev_err)
if(NOT ev_rc EQUAL 0)
    message(FATAL_ERROR "events --from events.jsonl failed: ${ev_out}${ev_err}")
endif()
foreach(span push_start push_acked relay_accept relay_flush root_fold)
    if(NOT ev_out MATCHES "info  ${span} node=[^ ]+ trace=")
        message(FATAL_ERROR "events lists no ${span} span: ${ev_out}")
    endif()
endforeach()

# Byte-identical to a flat one-shot merge of the same four shards.
execute_process(COMMAND "${HBBP_TOOL}" merge -o "${WORK_DIR}/flat.profile"
    "${WORK_DIR}/a.profile" "${WORK_DIR}/b.profile"
    "${WORK_DIR}/c.profile" "${WORK_DIR}/d.profile"
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "flat merge failed (exit ${rc})")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${WORK_DIR}/root1.profile" "${WORK_DIR}/flat.profile"
    RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR "tree aggregate is not byte-identical to the flat merge")
endif()

# --- phase 2: SIGKILL relay1 and then the root, resume both from --state --
# relay1 flushes per accept, so once `push hostA` returns, the root
# holds (and has logged) a coverage-{hostA} aggregate and relay1's
# journal holds the shard — SIGKILL loses nothing. The restarted
# relay1 reports restored=1, takes hostB, and its final flush
# supersedes the partial one upstream. Once it has exited, that flush
# is in the root's log, so SIGKILLing the root loses nothing either:
# the restarted root replays both flushes, and relay2 then feeds it.
set(phase2_script "
dir='${WORK_DIR}'
tool='${HBBP_TOOL}'
waitport() {
    i=0
    while [ ! -s \"$1\" ]; do
        i=$((i+1)); [ $i -gt 200 ] && echo \"$1 never appeared\" && exit 1
        sleep 0.1
    done
}
\"$tool\" aggregate --listen 0 --port-file \"$dir/root2.port\" --expect 4 \\
    --state \"$dir/root2.state\" --timeout-ms 120000 \\
    -o \"$dir/root2a.profile\" > \"$dir/root2a.log\" 2>&1 &
rootpid=$!
waitport \"$dir/root2.port\"
rp=$(cat \"$dir/root2.port\")
\"$tool\" relay --listen 0 --port-file \"$dir/r1a.port\" --to 127.0.0.1:$rp \\
    --relay-id relay1 --flush-every 1 --state \"$dir/relay1.state\" \\
    --expect 99 --timeout-ms 120000 > \"$dir/r1a.log\" 2>&1 &
r1pid=$!
waitport \"$dir/r1a.port\"
p1=$(cat \"$dir/r1a.port\")
# hostA lands, is journaled, and is flushed upstream before the push
# returns; then the relay dies the hard way.
\"$tool\" push test40 --host hostA --to 127.0.0.1:$p1 --retries 20 \\
    > \"$dir/push2A.log\" 2>&1 || exit 1
kill -9 $r1pid 2>/dev/null
wait $r1pid 2>/dev/null
\"$tool\" relay --listen 0 --port-file \"$dir/r1b.port\" --to 127.0.0.1:$rp \\
    --relay-id relay1 --state \"$dir/relay1.state\" --expect 2 \\
    --timeout-ms 120000 > \"$dir/r1b.log\" 2>&1 &
r1bpid=$!
waitport \"$dir/r1b.port\"
p1b=$(cat \"$dir/r1b.port\")
\"$tool\" push test40 --host hostB --to 127.0.0.1:$p1b --retries 20 \\
    > \"$dir/push2B.log\" 2>&1 || exit 1
wait $r1bpid || exit 1
# relay1's superseding flush is acknowledged, so it is in the log.
kill -9 $rootpid 2>/dev/null
wait $rootpid 2>/dev/null
\"$tool\" aggregate --listen 0 --port-file \"$dir/root2b.port\" --expect 4 \\
    --state \"$dir/root2.state\" --timeout-ms 120000 \\
    -o \"$dir/root2.profile\" > \"$dir/root2b.log\" 2>&1 &
rootpid=$!
waitport \"$dir/root2b.port\"
rp=$(cat \"$dir/root2b.port\")
\"$tool\" relay --listen 0 --port-file \"$dir/r2b.port\" --to 127.0.0.1:$rp \\
    --relay-id relay2 --expect 2 --timeout-ms 120000 > \"$dir/r2b.log\" 2>&1 &
r2pid=$!
waitport \"$dir/r2b.port\"
p2=$(cat \"$dir/r2b.port\")
rc=0
\"$tool\" push test40 --host hostC --to 127.0.0.1:$p2 --retries 20 \\
    > \"$dir/push2C.log\" 2>&1 || rc=1
\"$tool\" push test40 --host hostD --to 127.0.0.1:$p2 --retries 20 \\
    > \"$dir/push2D.log\" 2>&1 || rc=1
wait $r2pid || rc=1
wait $rootpid || rc=1
[ $rc -eq 0 ] || exit $rc
# A third start on the same log: the fleet is already covered.
\"$tool\" aggregate --listen 0 --expect 4 --state \"$dir/root2.state\" \\
    --timeout-ms 120000 -o \"$dir/root2c.profile\" > \"$dir/root2c.log\" 2>&1
")
execute_process(COMMAND sh -c "${phase2_script}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    dump_logs()
    message(FATAL_ERROR "phase 2 (kill + resume) failed (exit ${rc})\n${ALL_LOGS}")
endif()

file(READ "${WORK_DIR}/r1b.log" r1b_log)
if(NOT r1b_log MATCHES "restored=1")
    message(FATAL_ERROR "restarted relay did not restore its journaled shard: ${r1b_log}")
endif()
file(READ "${WORK_DIR}/root2b.log" root2_log)
# relay1's partial flush and the flush that superseded it.
if(NOT root2_log MATCHES "restored=2 hosts=4 covered=4")
    message(FATAL_ERROR "restarted root did not replay both flushes and cover the fleet: ${root2_log}")
endif()
# The log holds no superseded record: only relay1's last flush and
# relay2's one replay on the third start.
file(READ "${WORK_DIR}/root2c.log" root2c_log)
if(NOT root2c_log MATCHES "restored=2 hosts=4 covered=4")
    message(FATAL_ERROR "root log still holds a superseded record: ${root2c_log}")
endif()

# Killing and resuming a relay and the root must not change a byte.
foreach(profile root2 root2c)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
        "${WORK_DIR}/${profile}.profile" "${WORK_DIR}/flat.profile"
        RESULT_VARIABLE differs2)
    if(differs2)
        message(FATAL_ERROR "${profile}: resumed tree aggregate is not byte-identical to the flat merge")
    endif()
endforeach()

# --- phase 3: metrics federation + healthz over the depth-2 tree ----------
# --flush-every 1 makes each relay's first accepted shard flush
# upstream immediately, advertising its metrics endpoint to the root
# while both relays stay alive waiting for their second shard — the
# window where the root's federated scrape and the SIGSTOP watchdog
# drama play out.
set(phase3_script "
dir='${WORK_DIR}'
tool='${HBBP_TOOL}'
waitport() {
    i=0
    while [ ! -s \"$1\" ]; do
        i=$((i+1)); [ $i -gt 200 ] && echo \"$1 never appeared\" && exit 1
        sleep 0.1
    done
}
\"$tool\" aggregate --listen 0 --port-file \"$dir/root3.port\" --expect 4 \\
    --timeout-ms 120000 -o \"$dir/root3.profile\" \\
    --metrics-port 0 --metrics-port-file \"$dir/root3.mport\" \\
    --event-log \"$dir/root3.events\" --stall-warn-s 10 \\
    > \"$dir/root3.log\" 2>&1 &
rootpid=$!
waitport \"$dir/root3.port\"
waitport \"$dir/root3.mport\"
rp=$(cat \"$dir/root3.port\")
rmp=$(cat \"$dir/root3.mport\")
\"$tool\" relay --listen 0 --port-file \"$dir/r1c.port\" --to 127.0.0.1:$rp \\
    --relay-id relay1 --expect 2 --flush-every 1 --timeout-ms 120000 \\
    --metrics-port 0 --metrics-port-file \"$dir/r1c.mport\" \\
    --event-log \"$dir/r1c.events\" --stall-warn-s 10 \\
    > \"$dir/r1c.log\" 2>&1 &
r1pid=$!
\"$tool\" relay --listen 0 --port-file \"$dir/r2c.port\" --to 127.0.0.1:$rp \\
    --relay-id relay2 --expect 2 --flush-every 1 --timeout-ms 120000 \\
    --metrics-port 0 --metrics-port-file \"$dir/r2c.mport\" \\
    --event-log \"$dir/r2c.events\" --stall-warn-s 10 \\
    > \"$dir/r2c.log\" 2>&1 &
r2pid=$!
waitport \"$dir/r1c.port\"
waitport \"$dir/r2c.port\"
waitport \"$dir/r1c.mport\"
waitport \"$dir/r2c.mport\"
p1=$(cat \"$dir/r1c.port\")
p2=$(cat \"$dir/r2c.port\")
# One shard per relay: each is folded and flushed upstream at once,
# carrying the relay's metrics= endpoint to the root.
\"$tool\" push test40 --host hostA --to 127.0.0.1:$p1 --retries 20 \\
    -o \"$dir/a3.profile\" > \"$dir/push3A.log\" 2>&1 || exit 1
\"$tool\" push test40 --host hostC --to 127.0.0.1:$p2 --retries 20 \\
    -o \"$dir/c3.profile\" > \"$dir/push3C.log\" 2>&1 || exit 1
# A single root scrape must eventually (one federation interval)
# return both children peer-labeled with the rolled-up subtree count:
# the root folds aggregates, so the level-0 shard counter exists only
# on the relays — its subtree rollup is exactly their sum, 2.
i=0
while true; do
    i=$((i+1)); [ $i -gt 60 ] && echo 'root never federated both relays' && exit 1
    \"$tool\" stats --from 127.0.0.1:$rmp > \"$dir/fed.txt\" 2>/dev/null
    grep -qF 'hbbp_federation_child_up{peer=\"relay1\"} 1' \"$dir/fed.txt\" &&
    grep -qF 'hbbp_federation_child_up{peer=\"relay2\"} 1' \"$dir/fed.txt\" &&
    grep -qF 'hbbp_agg_shards_folded_total{agg=\"subtree\"} 2' \"$dir/fed.txt\" && break
    sleep 0.5
done
\"$tool\" stats --from 127.0.0.1:$rmp --tree > \"$dir/tree.txt\" 2>&1 || exit 1
\"$tool\" stats --from 127.0.0.1:$rmp --watch 0.2 --count 2 \\
    > \"$dir/watch.txt\" 2>&1 || exit 1
# healthz: live on all three daemons mid-run (exit 0 = live).
\"$tool\" stats --from 127.0.0.1:$rmp --healthz \\
    > \"$dir/healthz_root.txt\" 2>&1 || exit 1
\"$tool\" stats --from 127.0.0.1:$(cat \"$dir/r1c.mport\") --healthz \\
    > \"$dir/healthz_r1.txt\" 2>&1 || exit 1
\"$tool\" stats --from 127.0.0.1:$(cat \"$dir/r2c.mport\") --healthz \\
    > \"$dir/healthz_r2.txt\" 2>&1 || exit 1
# Wedge relay1 the hard way: SIGSTOP keeps its sockets alive but stops
# answering scrapes, so the root must go degraded via child staleness.
kill -STOP $r1pid
i=0
while \"$tool\" stats --from 127.0.0.1:$rmp --healthz \\
        > \"$dir/healthz_degraded.txt\" 2>&1; do
    i=$((i+1)); [ $i -gt 120 ] && echo 'root never went degraded' && kill -CONT $r1pid && exit 1
    sleep 0.5
done
kill -CONT $r1pid
# ...and recover once the child answers again.
i=0
until \"$tool\" stats --from 127.0.0.1:$rmp --healthz \\
        > \"$dir/healthz_recovered.txt\" 2>&1; do
    i=$((i+1)); [ $i -gt 120 ] && echo 'root never recovered' && exit 1
    sleep 0.5
done
# Finish the tree: second shard per relay, everyone drains and exits.
rc=0
\"$tool\" push test40 --host hostB --to 127.0.0.1:$p1 --retries 20 \\
    -o \"$dir/b3.profile\" > \"$dir/push3B.log\" 2>&1 || rc=1
\"$tool\" push test40 --host hostD --to 127.0.0.1:$p2 --retries 20 \\
    -o \"$dir/d3.profile\" > \"$dir/push3D.log\" 2>&1 || rc=1
wait $r1pid || rc=1
wait $r2pid || rc=1
wait $rootpid || rc=1
exit $rc
")
execute_process(COMMAND sh -c "${phase3_script}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    dump_logs()
    message(FATAL_ERROR "phase 3 (health plane) failed (exit ${rc})\n${ALL_LOGS}")
endif()

# The single federated scrape: both children's series re-emitted under
# their peer label, the child_up gauge per child, and the subtree
# rollup covering root + both relays.
file(READ "${WORK_DIR}/fed.txt" fed)
foreach(needle
        "# TYPE hbbp_federation_child_up gauge"
        "hbbp_federation_child_up{peer=\"relay1\"} 1"
        "hbbp_federation_child_up{peer=\"relay2\"} 1"
        "hbbp_agg_shards_folded_total{peer=\"relay1\"} 1"
        "hbbp_agg_shards_folded_total{peer=\"relay2\"} 1"
        "hbbp_agg_shards_folded_total{agg=\"subtree\"} 2"
        "hbbp_agg_aggregates_folded_total{agg=\"subtree\"} 2")
    string(FIND "${fed}" "${needle}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "federated scrape lacks '${needle}':\n${fed}")
    endif()
endforeach()

# stats --tree renders the whole fleet from the one root endpoint.
file(READ "${WORK_DIR}/tree.txt" tree)
foreach(needle "fleet tree from" "peer relay1" "peer relay2" "subtree rollup")
    string(FIND "${tree}" "${needle}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "stats --tree lacks '${needle}':\n${tree}")
    endif()
endforeach()

# stats --watch: an absolute first round, then a delta round separator.
file(READ "${WORK_DIR}/watch.txt" watch)
if(NOT watch MATCHES "-- \\+")
    message(FATAL_ERROR "stats --watch printed no delta rounds:\n${watch}")
endif()

# healthz: live on all three mid-run, degraded at the root while
# relay1 was stopped (with the stale child named), live again after.
foreach(daemon root r1 r2)
    file(READ "${WORK_DIR}/healthz_${daemon}.txt" hz)
    if(NOT hz MATCHES "status: live")
        message(FATAL_ERROR "healthz on ${daemon} not live mid-run: ${hz}")
    endif()
endforeach()
file(READ "${WORK_DIR}/healthz_degraded.txt" hz_degraded)
if(NOT hz_degraded MATCHES "status: degraded")
    message(FATAL_ERROR "root healthz never reported degraded: ${hz_degraded}")
endif()
if(NOT hz_degraded MATCHES "child relay1 up=0")
    message(FATAL_ERROR "degraded healthz does not name the stale child: ${hz_degraded}")
endif()
file(READ "${WORK_DIR}/healthz_recovered.txt" hz_recovered)
if(NOT hz_recovered MATCHES "status: live")
    message(FATAL_ERROR "root healthz never recovered: ${hz_recovered}")
endif()

# The structured event log at the root recorded the stall-and-recover
# arc, and `hbbp-tool events` filters it by code.
foreach(pair "child_stale;peer=relay1" "child_recovered;peer=relay1")
    list(GET pair 0 code)
    list(GET pair 1 field)
    execute_process(COMMAND "${HBBP_TOOL}" events
        --from "${WORK_DIR}/root3.events" --code "${code}"
        RESULT_VARIABLE ev_rc OUTPUT_VARIABLE ev_out ERROR_VARIABLE ev_err)
    if(NOT ev_rc EQUAL 0)
        message(FATAL_ERROR "events --code ${code} failed: ${ev_out}${ev_err}")
    endif()
    if(NOT ev_out MATCHES "${code}" OR NOT ev_out MATCHES "${field}")
        message(FATAL_ERROR
            "no ${code} event with ${field} in root3.events: ${ev_out}")
    endif()
endforeach()

# Observability drama must not change a byte of the math.
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${WORK_DIR}/root3.profile" "${WORK_DIR}/flat.profile"
    RESULT_VARIABLE differs3)
if(differs3)
    message(FATAL_ERROR "health-plane tree aggregate is not byte-identical to the flat merge")
endif()

message(STATUS "relay smoke OK: 4 collectors -> 2 relays -> 1 root byte-identical to flat; SIGKILL + --state resume of a relay and the root -> same bytes; federated root scrape + healthz live/degraded/recovered under SIGSTOP -> same bytes")
