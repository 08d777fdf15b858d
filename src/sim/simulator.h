// The packet-level discrete-event network simulator (the paper's htsim
// stand-in) — the one engine behind every packet-sim result.
//
// Models store-and-forward output-queued links with drop-tail queues,
// source-routed packets, TCP NewReno senders, and MPTCP with LIA-coupled
// congestion control (Wischik et al., NSDI 2011) across pinned subflow
// paths. Fidelity targets the phenomena the paper's §5 probes: ECMP hash
// collisions starving flows, k-shortest-path diversity restoring capacity,
// and multipath transport pooling unequal paths. Time is integer
// nanoseconds; all behavior is deterministic given the configured inputs.
// The engine is topology-agnostic: callers create directed links and flows
// whose subflows carry explicit link-id paths (data direction and ACK
// return direction). sim::workload builds these from a topo::Topology.
//
// Execution is sharded with conservative lookahead. The link set is
// partitioned into shards (normally via a ShardPlan: per-switch domains
// from graph/partition's recursive KL bisection, servers pinned with their
// ToR). Each shard owns the links and flow endpoints assigned to it and
// runs the link mechanics (sim/event_loop.h) and transport state machines
// (sim/tcp.cc) over its own (time, EventOrder) heap. Shards advance in
// barrier-synchronous rounds:
//
//   round k:  every shard processes its events with time in [T, T + L)
//   barrier:  staged cross-shard events are merged, T advances
//
// where T is the global minimum pending timestamp and L — the *lookahead* —
// is the minimum latency of any cross-shard interaction: the smallest
// delay_ns over cut links (a packet handed to another shard arrives one
// wire delay after the transmitting link, in the transmitting link's shard,
// completed it) min'd with loss_feedback_floor_ns when a data path crosses
// shards (a drop anywhere on the path notifies the sender no earlier than
// the floor). Every event another shard can send into round k therefore
// carries a timestamp >= T + L and lands in a later round, so within a
// round shards only touch disjoint state: their own links, and the
// sender/receiver halves of Subflow state (see sim/core.h). A one-shard
// engine has no cut links: L is kMaxTime and the whole run is one round
// on the calling thread.
//
// Determinism: results are bit-identical at any shard and worker count.
// Each shard's pop sequence equals the canonical (time, EventOrder)
// sequence of the one-shard run restricted to the events the shard owns —
// the keys derive from per-entity emission counters (pre-shard global
// state), not arrival interleaving, and same-time events in different
// shards commute because they share no mutable state. Staged hand-offs are
// merged at the barrier in canonical shard order; since the order keys are
// collision-free, heap insertion order cannot influence the pop sequence
// anyway.
#pragma once

#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "sim/core.h"
#include "sim/telemetry.h"
#include "topo/topology.h"

namespace jf::sim {

// Shard assignment: `num_shards` balanced switch domains with few crossing
// cables (graph::balanced_partition's recursive KL bisection). Every
// directed link is owned by the shard of its tail switch — so a packet's
// transmission completes where the link lives and hand-offs to the next
// hop cross shards exactly on cut cables — and every server (with its NIC
// links and transport endpoint state) is pinned to its ToR's shard. The
// plan is a pure function of (topology, shards, rng stream): sim::workload
// derives the stream from a fork of the workload seed, so planning never
// perturbs the draws a one-shard run makes.
struct ShardPlan {
  int num_shards = 1;
  std::vector<int> switch_shard;  // switch id -> owning shard, in [0, num_shards)
};

// Builds the plan; `shards` is clamped to [1, num_switches]. Deterministic
// given the rng state (taken by value: the caller's stream is untouched).
ShardPlan build_shard_plan(const topo::Topology& topo, int shards, Rng rng,
                           int restarts = 3);

class Simulator {
 public:
  static constexpr TimeNs kMaxTime = std::numeric_limits<TimeNs>::max();

  Simulator(SimConfig cfg, int num_shards);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Adds a directed link owned by `shard`, with the config's default
  // parameters (or explicit ones); returns its id.
  int add_link(int shard);
  int add_link(int shard, double rate_bps, TimeNs delay_ns, int queue_capacity);

  // Creates a flow whose sender endpoint (timers, congestion state) lives
  // in src_shard and receiver endpoint in dst_shard.
  int add_flow(int src_server, int dst_server, bool mptcp, int src_shard, int dst_shard);

  // Attaches a subflow with its forward and reverse link paths; attach
  // every subflow before run_until. Both paths must be non-empty (a server
  // pair is always joined via its NIC links), and the subflow index and
  // both path lengths must fit a Packet's 16-bit subflow/hop fields.
  // Checked at run start: data_path.front() must live in src_shard and
  // ack_path.front() in dst_shard (senders enqueue into their first link
  // with zero latency).
  void add_subflow(int flow, std::vector<int> data_path, std::vector<int> ack_path,
                   TimeNs start_time);

  // In-order payload bytes delivered inside [start, end) count as measured.
  void set_measure_window(TimeNs start, TimeNs end);

  // Sizes a flow (ceil(bytes/payload) packets split across its subflows;
  // 0 = backlogged). Call after its subflows are attached, before run_until.
  void set_flow_size(int flow, std::int64_t bytes);

  // Attaches a telemetry recorder (may be null to detach; not owned). Call
  // after every link and flow exists, before the first run_until —
  // attach() pre-sizes the recorder's tables to the current link/flow
  // counts. Every shard writes into the one recorder: each slot of its
  // tables has exactly one writing shard (the link's owner / the flow's
  // sender endpoint), mirroring the engine's own discipline. Purely
  // observational: the hooks never create events or advance emission
  // counters, so the recording (and the run) is byte-identical at any shard
  // or worker count, and with or without it.
  void set_telemetry(Telemetry* telemetry);

  // Finalizes the attached recorder at the run's end time. Call exactly
  // once, after run_until.
  void finalize_telemetry();

  // Advances to t_end in conservative-lookahead rounds; shards run in
  // parallel on workers borrowed from `budget` (may be null: the calling
  // thread sweeps the shards alone). The borrow grant changes wall-clock
  // time only, never results.
  void run_until(TimeNs t_end, parallel::WorkBudget* budget = nullptr);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const SimConfig& config() const { return cfg_; }
  const Flow& flow(int id) const;
  int num_flows() const { return static_cast<int>(flows_.size()); }
  const Link& link(int id) const;
  int link_shard(int id) const;
  std::int64_t total_drops() const;

  // Normalized goodput of a flow over the measurement window (1.0 = NIC rate).
  double normalized_goodput(int flow_id) const;

  // Introspection (valid once run_until has been called): the round bound
  // (kMaxTime when nothing crosses shards) and rounds executed so far.
  TimeNs lookahead_ns() const;
  std::int64_t rounds() const { return rounds_; }

 private:
  // One shard: its clock, event heap and mailboxes, and the handlers that
  // run against the owner's tables. Ownership discipline (only handlers in
  // the owning shard touch a link or an endpoint's half of a Subflow) is
  // what keeps concurrent rounds race-free.
  struct Shard {
    Shard(Simulator& owner, int id) : owner_(owner), id_(id) {}

    // Processes this shard's events with time < horizon (and <= t_end).
    void run_round(TimeNs horizon, TimeNs t_end);

    // Link mechanics, inline in sim/event_loop.h. Transmission completions
    // and timers are shard-local by construction (a link's transmissions
    // complete in its own shard; timers fire where the sender lives) and
    // go straight onto events_.
    void handle(const Event& ev);
    void enqueue_packet(int link_id, const Packet& pkt);
    void start_transmission(int link_id);
    void forward_or_deliver(Packet pkt);

    // Arrivals and loss notifications go through route(), which may stage
    // them in another shard's mailbox.
    void dispatch_arrival(Event&& ev);  // routed by the packet's next hop
    void dispatch_loss(Event&& ev);     // routed to the sender endpoint
    void route(Event&& ev, int dest);

    // Transport state machines, in sim/tcp.cc. Every one runs at one
    // endpoint of the flow: on_data at the destination, everything else at
    // the source — the field-ownership split Subflow documents, which is
    // what lets the two endpoints live in different shards.
    //
    // Data packet reached its destination host: reassemble, count goodput,
    // emit a (possibly duplicate) cumulative ACK on the reverse path.
    void on_data(const Packet& pkt);
    // Cumulative ACK reached the sender: advance the window, run NewReno.
    void on_ack(const Packet& pkt);
    // RTO fired (if the generation is current): back off and go-back-N.
    void on_timeout(int flow, int subflow, std::uint32_t gen);
    // A queue dropped this data packet (oracle SACK): mark it lost, apply one
    // window reduction per flight, and refill the pipe.
    void on_loss(const Packet& pkt);
    // Pushes packets while the pipe has room: lost segments first (exact
    // retransmission), then new data.
    void try_send(int flow, int subflow);
    void send_data(int flow, int subflow, std::int32_t seq, bool retransmit);
    void send_ack(const Packet& data);
    // Arms the retransmission timer if data is outstanding and none is armed;
    // `rearm` forces a fresh deadline (used when cumulative ACKs advance).
    void arm_timer(int flow, int subflow, bool rearm);
    void update_rtt(Subflow& sf, std::int64_t sample_ns) const;

    Simulator& owner_;
    int id_ = 0;
    TimeNs now_ = 0;
    std::priority_queue<Event, std::vector<Event>, EventAfter> events_;
    // Cross-shard hand-offs staged during a round (dest shard -> events),
    // merged serially at the barrier.
    std::vector<std::vector<Event>> outbox_;
    // Telemetry (shard-local, single-writer; read at the barrier): lifetime
    // event/hand-off totals and this round's busy wall time. Plain counters —
    // they never feed back into the simulation.
    std::int64_t events_processed_ = 0;
    std::int64_t handoffs_ = 0;
    std::int64_t round_busy_ns_ = 0;
  };

  // Validates shard-placement constraints, computes the lookahead, and
  // seeds flow-start events into their owning shards.
  void finalize();

  SimConfig cfg_;
  std::vector<Link> links_;
  std::vector<int> link_shard_;
  std::vector<Flow> flows_;
  std::vector<int> flow_src_shard_;
  std::vector<int> flow_dst_shard_;
  std::vector<Shard> shards_;
  Telemetry* telemetry_ = nullptr;
  TimeNs measure_start_ = 0;
  TimeNs measure_end_ = 0;
  TimeNs lookahead_ns_ = kMaxTime;
  std::int64_t rounds_ = 0;
  bool started_ = false;
};

}  // namespace jf::sim
