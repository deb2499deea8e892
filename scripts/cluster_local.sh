#!/usr/bin/env bash
# Launches an n-process gossipd cluster on localhost, drives client values
# through it, and asserts that every node learned the same gap-free decision
# sequence (DESIGN.md §10).
#
# Usage:
#   scripts/cluster_local.sh [options]
#     -n NODES     cluster size (default 3, minimum 3)
#     -v VALUES    total client values to order (default 300)
#     -s SETUP     baseline | gossip | semantic (default semantic)
#     -G GROUPS    independent consensus groups over the shared substrate
#                  (default 1; DESIGN.md §15). With >1 every decision-log
#                  line gains a leading group column, logs are normalized to
#                  (group, instance) order before comparison, and gap-freedom
#                  is asserted per group
#     -T TRANSPORT tcp | udp (default tcp)
#     -f           enable failure detector + coordinator failover
#     -k           SIGKILL the coordinator (node 0) mid-run; implies -f.
#                  Node 0 then submits no values of its own: values a process
#                  accepted but had not yet proposed die with it by design,
#                  which would make the expected total nondeterministic.
#     -C PROFILE   replay a chaos fault schedule in every node:
#                  light | moderate | heavy | heavy_failover. Crash/restart,
#                  churn and (under -T udp) partition and link-fault lanes
#                  are applied against the real sockets; all nodes must
#                  render the identical injected-fault log. Nodes linger
#                  2 s + 20 ms per value after meeting the expectation, so
#                  a node wiped before it learned the log can relearn it
#                  by gap repair (about 100 instances/s). heavy_failover
#                  permanently crashes node 0, so pair it with -k semantics
#                  in mind.
#     -S SEED      chaos schedule seed (default 1); same seed, same schedule
#     -t SECONDS   per-node hard runtime limit (default 60)
#     -b BINARY    gossipd binary (default build/examples/gossipd)
#     -d DIR       scratch directory for logs (default: a fresh mktemp dir)
#
# Exit status: 0 iff every (surviving) node exited 0 and all decision logs
# are identical, complete, and gap-free. Under -C a crash-wiped node
# re-delivers from instance 1, so logs are deduplicated per instance before
# the comparison (every line is an "instance decided value" assertion).
set -euo pipefail

cd "$(dirname "$0")/.."

NODES=3
VALUES=300
SETUP=semantic
NGROUPS=1
TRANSPORT=tcp
FAILOVER=0
KILL_COORD=0
CHAOS=""
CHAOS_SEED=1
TIMEOUT=60
BINARY=build/examples/gossipd
DIR=""

while getopts "n:v:s:G:T:fkC:S:t:b:d:h" o; do
    case "$o" in
        n) NODES="$OPTARG" ;;
        v) VALUES="$OPTARG" ;;
        s) SETUP="$OPTARG" ;;
        G) NGROUPS="$OPTARG" ;;
        T) TRANSPORT="$OPTARG" ;;
        f) FAILOVER=1 ;;
        k) KILL_COORD=1; FAILOVER=1 ;;
        C) CHAOS="$OPTARG"; FAILOVER=1 ;;
        S) CHAOS_SEED="$OPTARG" ;;
        t) TIMEOUT="$OPTARG" ;;
        b) BINARY="$OPTARG" ;;
        d) DIR="$OPTARG" ;;
        h|*) sed -n '2,40p' "$0"; exit 2 ;;
    esac
done

case "$TRANSPORT" in
    tcp|udp) ;;
    *) echo "cluster_local.sh: unknown transport '$TRANSPORT' (tcp|udp)" >&2; exit 2 ;;
esac

if [ "$NODES" -lt 3 ]; then
    echo "cluster_local.sh: need at least 3 nodes" >&2
    exit 2
fi
if [ "$NGROUPS" -lt 1 ]; then
    echo "cluster_local.sh: -G must be at least 1" >&2
    exit 2
fi
if [ ! -x "$BINARY" ]; then
    echo "cluster_local.sh: $BINARY not found or not executable (build it first)" >&2
    exit 2
fi

[ -n "$DIR" ] || DIR="$(mktemp -d /tmp/cluster_local.XXXXXX)"
mkdir -p "$DIR"

# A pseudo-random base port keeps concurrent invocations (and TIME_WAIT
# remnants of previous ones) from colliding.
BASE_PORT=$(( 20000 + RANDOM % 20000 ))
CLUSTER=""
for ((i = 0; i < NODES; i++)); do
    CLUSTER+="${CLUSTER:+,}127.0.0.1:$((BASE_PORT + i))"
done

# Split the total across the submitting nodes (node 0 abstains under -k).
SUBMITTERS=$NODES
FIRST_SUBMITTER=0
if [ "$KILL_COORD" -eq 1 ]; then
    SUBMITTERS=$((NODES - 1))
    FIRST_SUBMITTER=1
fi
PER_NODE=$((VALUES / SUBMITTERS))
REMAINDER=$((VALUES % SUBMITTERS))

PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2> /dev/null || true
    done
    wait 2> /dev/null || true
}
trap cleanup EXIT INT TERM

echo "cluster_local.sh: $NODES nodes, $VALUES values, setup=$SETUP groups=$NGROUPS" \
     "transport=$TRANSPORT failover=$FAILOVER kill-coordinator=$KILL_COORD" \
     "chaos=${CHAOS:-off} logs=$DIR"

for ((i = 0; i < NODES; i++)); do
    SUBMIT=0
    if [ "$i" -ge "$FIRST_SUBMITTER" ]; then
        SUBMIT=$PER_NODE
        # The first submitter also takes the division remainder.
        [ "$i" -eq "$FIRST_SUBMITTER" ] && SUBMIT=$((PER_NODE + REMAINDER))
    fi
    ARGS=(--id "$i" --cluster "$CLUSTER" --setup "$SETUP" --transport "$TRANSPORT"
          --submit "$SUBMIT" --rate 300 --expect "$VALUES" --run-for "$TIMEOUT"
          --decision-log "$DIR/node$i.log" --metrics "$DIR/node$i.metrics")
    [ "$NGROUPS" -gt 1 ] && ARGS+=(--groups "$NGROUPS")
    [ "$FAILOVER" -eq 1 ] && ARGS+=(--failover)
    [ -n "$CHAOS" ] && ARGS+=(--chaos "$CHAOS" --chaos-seed "$CHAOS_SEED"
                              --chaos-log "$DIR/node$i.chaos"
                              --linger $((2 + VALUES / 50)))
    "$BINARY" "${ARGS[@]}" > "$DIR/node$i.out" 2>&1 &
    PIDS+=($!)
done

if [ "$KILL_COORD" -eq 1 ]; then
    sleep 2
    echo "cluster_local.sh: SIGKILL coordinator (node 0, pid ${PIDS[0]})"
    kill -9 "${PIDS[0]}" 2> /dev/null || true
fi

FAIL=0
SURVIVOR=-1
for ((i = 0; i < NODES; i++)); do
    if [ "$KILL_COORD" -eq 1 ] && [ "$i" -eq 0 ]; then
        wait "${PIDS[$i]}" 2> /dev/null || true
        continue
    fi
    if ! wait "${PIDS[$i]}"; then
        echo "cluster_local.sh: node $i exited non-zero:" >&2
        tail -3 "$DIR/node$i.out" >&2 || true
        FAIL=1
    fi
    SURVIVOR=$i
done
PIDS=()

if [ "$FAIL" -ne 0 ] || [ "$SURVIVOR" -lt 0 ]; then
    echo "cluster_local.sh: FAIL (nodes exited short of the expectation)" >&2
    exit 1
fi

# Under chaos a crash-wiped node re-delivers from instance 1 (and a wipe
# late in the run can leave a partial re-delivery tail), so normalize each
# log to its unique "instance client seq" assertions, in instance order. A
# safety divergence survives normalization as a duplicate instance line and
# fails the gap check below. With -G > 1 the groups' deliveries interleave
# in node-local order, so logs are always normalized — to unique
# "group instance client seq" assertions in (group, instance) order.
SUFFIX=""
if [ "$NGROUPS" -gt 1 ]; then
    SUFFIX=".norm"
    for ((i = FIRST_SUBMITTER; i < NODES; i++)); do
        sort -u "$DIR/node$i.log" | sort -s -k1,1n -k2,2n > "$DIR/node$i.log$SUFFIX"
    done
elif [ -n "$CHAOS" ]; then
    SUFFIX=".norm"
    for ((i = FIRST_SUBMITTER; i < NODES; i++)); do
        sort -u "$DIR/node$i.log" | sort -s -n -k1,1 > "$DIR/node$i.log$SUFFIX"
    done
fi
REF="$DIR/node$SURVIVOR.log$SUFFIX"

# 1. Completeness: the reference log holds exactly the expected count.
LINES=$(wc -l < "$REF")
if [ "$LINES" -ne "$VALUES" ]; then
    echo "cluster_local.sh: FAIL ($LINES decisions in $REF, expected $VALUES)" >&2
    exit 1
fi

# 2. Gap-freedom. Single group: the instance column is exactly 1..VALUES in
# order. Sharded: within each group the instance column is contiguous from 1
# (the per-group totals vary with the value hash, their sum is checked above).
if [ "$NGROUPS" -gt 1 ]; then
    if ! awk '
            $2 != seen[$1] + 1 { print "group " $1 " instance " $2 \
                                 " after " seen[$1] + 0; exit 1 }
            { seen[$1] = $2 }
        ' "$REF"; then
        echo "cluster_local.sh: FAIL (a group's decision sequence has gaps in $REF)" >&2
        exit 1
    fi
else
    if ! awk -v want="$VALUES" '
            $1 != NR { print "instance " $1 " at line " NR; bad = 1; exit }
            END { if (!bad && NR != want) { print "ended at " NR; exit 1 } else exit bad }
        ' "$REF"; then
        echo "cluster_local.sh: FAIL (decision sequence has gaps in $REF)" >&2
        exit 1
    fi
fi

# 3. Agreement: every surviving node produced the identical log.
for ((i = FIRST_SUBMITTER; i < NODES; i++)); do
    if ! cmp -s "$REF" "$DIR/node$i.log$SUFFIX"; then
        echo "cluster_local.sh: FAIL (node $i log differs from node $SURVIVOR)" >&2
        diff "$REF" "$DIR/node$i.log$SUFFIX" | head -5 >&2 || true
        exit 1
    fi
done

# 4. Chaos determinism: every surviving node rendered the identical
# injected-fault log (same profile + seed -> same schedule, byte for byte).
if [ -n "$CHAOS" ]; then
    CREF="$DIR/node$SURVIVOR.chaos"
    for ((i = FIRST_SUBMITTER; i < NODES; i++)); do
        if ! cmp -s "$CREF" "$DIR/node$i.chaos"; then
            echo "cluster_local.sh: FAIL (node $i injected-fault log differs)" >&2
            diff "$CREF" "$DIR/node$i.chaos" | head -5 >&2 || true
            exit 1
        fi
    done
fi

echo "cluster_local.sh: OK — $NODES nodes agreed on $VALUES decisions${CHAOS:+ under $CHAOS chaos} (logs in $DIR)"
