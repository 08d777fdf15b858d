// Link-layer event mechanics of the packet simulator: drop-tail enqueue,
// transmission scheduling, hop-by-hop forwarding and the event dispatch
// switch, as Simulator::Shard members. They are inline here so that both
// the round loop (sim/simulator.cc) and the transport state machines
// (sim/tcp.cc) inline them. Nothing in this file knows where an event lands: identical
// mechanics and event-order keys at any shard count, so identical results.
#pragma once

#include <algorithm>

#include "common/check.h"
#include "sim/core.h"
#include "sim/simulator.h"
#include "sim/telemetry.h"

namespace jf::sim {

// Appends the packet to the link's drop-tail queue, starting transmission if
// the link is idle. On overflow, data packets trigger an oracle-SACK loss
// notification to the sender (DESIGN.md §3). Real SACK feedback takes about
// one round trip — the following segment's dupacks — so the notification is
// delayed by the packet's experienced one-way delay plus the uncongested ACK
// return time, every term of which is local to the dropping link's shard
// (the packet carries its send timestamp and the return time is a static
// property of the path). The floor also keeps a dropped retransmission from
// livelocking the event loop at one timestamp.
inline void Simulator::Shard::enqueue_packet(int link_id, const Packet& pkt) {
  Link& l = owner_.links_[static_cast<std::size_t>(link_id)];
  Telemetry* telemetry = owner_.telemetry_;
  if (static_cast<int>(l.queue.size()) >= l.queue_capacity) {
    ++l.drops;
    if (telemetry) telemetry->on_drop(link_id, now_);
    if (!pkt.is_ack) {
      const Subflow& sf = owner_.flows_[static_cast<std::size_t>(pkt.flow)]
                              .subflows[static_cast<std::size_t>(pkt.subflow)];
      const TimeNs feedback = std::max<TimeNs>(owner_.cfg_.loss_feedback_floor_ns,
                                               (now_ - pkt.ts) + sf.ack_return_ns);
      Event ev;
      ev.time = now_ + feedback;
      ev.order = make_order(link_order_src(link_id), l.order_seq++);
      ev.type = EventType::kLossNotify;
      ev.pkt = pkt;
      dispatch_loss(std::move(ev));
    }
    return;
  }
  l.queue.push_back(pkt);
  if (telemetry) telemetry->on_enqueue(link_id, now_, static_cast<int>(l.queue.size()));
  if (!l.busy) start_transmission(link_id);
}

inline void Simulator::Shard::start_transmission(int link_id) {
  Link& l = owner_.links_[static_cast<std::size_t>(link_id)];
  ensure(!l.queue.empty(), "start_transmission: empty queue");
  l.busy = true;
  const Packet& head = l.queue.front();
  Event ev;
  ev.time = now_ + transmit_time_ns(head.size_bytes, l.rate_bps);
  ev.order = make_order(link_order_src(link_id), l.order_seq++);
  ev.type = EventType::kLinkDone;
  ev.a = link_id;
  events_.push(std::move(ev));
}

inline void Simulator::Shard::forward_or_deliver(Packet pkt) {
  Flow& f = owner_.flows_[static_cast<std::size_t>(pkt.flow)];
  Subflow& sf = f.subflows[static_cast<std::size_t>(pkt.subflow)];
  const auto& path = pkt.is_ack ? sf.ack_path : sf.data_path;
  if (pkt.hop < static_cast<std::int16_t>(path.size())) {
    const int next_link = path[static_cast<std::size_t>(pkt.hop)];
    ++pkt.hop;
    enqueue_packet(next_link, pkt);
    return;
  }
  // Reached the endpoint: hand to the transport layer.
  if (pkt.is_ack) on_ack(pkt);
  else on_data(pkt);
}

inline void Simulator::Shard::handle(const Event& ev) {
  switch (ev.type) {
    case EventType::kLinkDone: {
      Link& l = owner_.links_[static_cast<std::size_t>(ev.a)];
      ensure(l.busy && !l.queue.empty(), "kLinkDone: inconsistent link state");
      Packet pkt = l.queue.front();
      l.queue.pop_front();
      ++l.tx_packets;
      l.tx_bytes += pkt.size_bytes;
      if (owner_.telemetry_) owner_.telemetry_->on_transmit(ev.a, now_, pkt.size_bytes);
      // Propagate to the next hop after the wire delay.
      Event arrive;
      arrive.time = now_ + l.delay_ns;
      arrive.order = make_order(link_order_src(ev.a), l.order_seq++);
      arrive.type = EventType::kArrive;
      arrive.pkt = pkt;
      dispatch_arrival(std::move(arrive));
      if (!l.queue.empty()) start_transmission(ev.a);
      else l.busy = false;
      break;
    }
    case EventType::kArrive:
      forward_or_deliver(ev.pkt);
      break;
    case EventType::kTimeout:
      on_timeout(ev.a, ev.b, ev.gen);
      break;
    case EventType::kFlowStart:
      try_send(ev.a, ev.b);
      break;
    case EventType::kLossNotify:
      on_loss(ev.pkt);
      break;
  }
}

}  // namespace jf::sim
