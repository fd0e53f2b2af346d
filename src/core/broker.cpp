#include "core/broker.hpp"

#include <algorithm>

namespace kgrid::core {

Broker::Broker(net::NodeId id, hom::EvalHandle eval, hom::CounterLayout layout,
               std::vector<net::NodeId> neighbors, Accountant* accountant,
               Controller* controller, Rng rng)
    : id_(id), eval_(std::move(eval)), layout_(layout),
      neighbors_(std::move(neighbors)), accountant_(accountant),
      controller_(controller), rng_(rng) {
  KGRID_CHECK(accountant_ != nullptr && controller_ != nullptr,
              "broker needs its accountant and controller");
  KGRID_CHECK(layout_.degree() >= neighbors_.size(),
              "layout too small for neighbour list");
  for (std::size_t s = 1; s <= neighbors_.size(); ++s)
    slot_by_node_.emplace(neighbors_[s - 1], s);
}

void Broker::add_neighbor(net::NodeId v) {
  KGRID_CHECK(neighbors_.size() < layout_.degree(),
              "no spare layout slot for joining neighbour");
  neighbors_.push_back(v);
  slot_by_node_.emplace(v, neighbors_.size());
  active_edges_stale_ = true;
  for (auto& entry : votes_) {
    EdgeState edge;
    edge.received = eval_.zero(layout_.n_fields(), rng_);
    edge.first_received = edge.received;
    entry.second.edges.push_back(std::move(edge));
    mark_dirty(entry);  // bootstrap the new edge on the next flush
  }
}

void Broker::install_token(net::NodeId recipient, hom::Cipher token,
                           hom::CounterLayout their_layout,
                           std::size_t our_slot) {
  tokens_.insert_or_assign(recipient,
                           TokenInfo{std::move(token), their_layout, our_slot});
  active_edges_stale_ = true;
}

void Broker::refresh_active_edges() {
  active_edges_stale_ = false;
  active_edges_.clear();
  for (std::size_t slot = 1; slot <= neighbors_.size(); ++slot) {
    const net::NodeId w = neighbors_[slot - 1];
    if (quarantined_.contains(w)) continue;
    const auto it = tokens_.find(w);
    if (it == tokens_.end()) continue;  // setup incomplete
    active_edges_.push_back({slot, w, &it->second});
  }
}

Broker::VoteEntry& Broker::vote_entry(const arm::Candidate& candidate) {
  auto [it, inserted] = votes_.try_emplace(candidate);
  if (inserted) {
    it->second.input = eval_.zero(layout_.n_fields(), rng_);
    it->second.edges.reserve(neighbors_.size());
    for (std::size_t s = 0; s < neighbors_.size(); ++s) {
      EdgeState edge;
      edge.received = eval_.zero(layout_.n_fields(), rng_);
      edge.first_received = edge.received;
      it->second.edges.push_back(std::move(edge));
    }
  }
  return *it;
}

hom::Cipher Broker::build_aggregate(const VoteState& state) {
  // Honest path: ⊥ plus every neighbour's latest, summed and rerandomized
  // once so the controller's reply cannot be correlated with individual
  // counters (DESIGN.md §3). Collect the contribution list first (the
  // malicious behaviours corrupt it here: a duplicated, dropped, or
  // replayed entry), then fold it in list order.
  std::vector<const hom::Cipher*>& contributions = contributions_;
  contributions.clear();
  contributions.reserve(state.edges.size() + 2);
  contributions.push_back(&state.input);
  bool corrupted_once = false;
  for (const EdgeState& edge : state.edges) {
    const hom::Cipher* contribution = &edge.received;
    switch (behavior_) {
      case BrokerBehavior::kDoubleCount:
        if (!corrupted_once && edge.contacted) {
          contributions.push_back(&edge.received);
          corrupted_once = true;
        }
        break;
      case BrokerBehavior::kOmitNeighbour:
        if (!corrupted_once && edge.contacted) {
          corrupted_once = true;
          continue;  // drop this neighbour entirely
        }
        break;
      case BrokerBehavior::kReplayOld:
        if (!corrupted_once && edge.contacted) {
          contribution = &edge.first_received;
          corrupted_once = true;
        }
        break;
      default:
        break;
    }
    contributions.push_back(contribution);
  }
  return eval_.aggregate_rerandomized(contributions, rng_);
}

void Broker::evaluate_edges(const arm::Candidate& rule, VoteState& state,
                            Effects& effects) {
  if (behavior_ == BrokerBehavior::kMuteBroker) return;
  const hom::Cipher agg_all = build_aggregate(state);

  // Pick the edges to consult, then have the controller decrypt the
  // aggregate and every neighbour counter in one batch (E+1 decryptions
  // for E edges instead of the 2E a per-edge SFE pays). The per-edge gate
  // logic stays serial and in slot order — it is integer arithmetic plus
  // at most one encryption, and its ordering carries the rng discipline.
  if (active_edges_stale_) refresh_active_edges();
  if (active_edges_.empty()) return;
  std::vector<const hom::Cipher*>& recvs = recvs_;
  recvs.clear();
  for (const ActiveEdge& ae : active_edges_)
    recvs.push_back(&state.edges[ae.slot - 1].received);
  Controller::SfeBatch& batch = batch_;
  controller_->prepare_sfe(agg_all, recvs, executor_, batch);

  for (std::size_t i = 0; i < active_edges_.size(); ++i) {
    const std::size_t slot = active_edges_[i].slot;
    const net::NodeId w = active_edges_[i].w;
    const TokenInfo& token = *active_edges_[i].token;

    ++stats_.edge_evaluations;
    auto decision =
        controller_->sfe_send(rule, w, slot, batch.agg_all, batch.recv[i],
                              token.their_layout, token.our_slot);
    for (auto& d : decision.detections) effects.detections.push_back(d);
    if (!decision.send) continue;

    // Complete the controller's fresh counter with w's encrypted share
    // token; neither piece is forgeable by this broker. The counter's fresh
    // randomizer already makes the sum's uniform, so it goes out without a
    // second rerandomization (DESIGN.md §3).
    hom::Cipher outgoing = std::move(decision.outgoing);
    eval_.add_into(outgoing, token.token);
    if (behavior_ == BrokerBehavior::kRandomCounter) {
      // "Using an arbitrary value instead of summing": without the
      // encryption key the strongest corruption is scaling the cipher.
      outgoing = eval_.scalar_mul(2 + rng_.below(1000), outgoing);
    }
    ++stats_.messages_out;
    effects.messages.push_back(
        {w, SecureRuleMessage{rule, std::move(outgoing)}});
  }
}

Broker::Effects Broker::register_candidate(const arm::Candidate& candidate) {
  Effects effects;
  if (known_.contains(candidate)) return effects;
  known_.insert(candidate);
  ++stats_.candidates_registered;
  if (!accountant_->has_rule(candidate)) accountant_->add_rule(candidate);
  VoteEntry& entry = vote_entry(candidate);
  // First-contact traffic (the controller's edge gates bootstrap to send).
  evaluate_edges(entry.first, entry.second, effects);
  return effects;
}

Broker::Effects Broker::on_accountant_update(const arm::Candidate& rule) {
  Effects effects;
  VoteEntry& entry = vote_entry(rule);
  entry.second.input = accountant_->reply(rule);
  entry.second.has_input = true;
  evaluate_edges(entry.first, entry.second, effects);
  return effects;
}

Broker::VoteEntry* Broker::accept_message(net::NodeId from,
                                          const SecureRuleMessage& message,
                                          Effects& effects) {
  if (quarantined_.contains(from)) return nullptr;
  // Algorithm 4: an unknown candidate joins C together with the frequency
  // vote over its full itemset. votes_ keys and known_ stay in sync, so
  // the vote lookup doubles as the membership test on the hot path.
  auto it = votes_.find(message.candidate);
  if (it == votes_.end()) {
    Effects reg = register_candidate(message.candidate);
    std::move(reg.messages.begin(), reg.messages.end(),
              std::back_inserter(effects.messages));
    std::move(reg.detections.begin(), reg.detections.end(),
              std::back_inserter(effects.detections));
    const arm::Candidate freq =
        arm::frequency_candidate(message.candidate.rule.all_items());
    if (!known_.contains(freq)) {
      Effects more = register_candidate(freq);
      std::move(more.messages.begin(), more.messages.end(),
                std::back_inserter(effects.messages));
      std::move(more.detections.begin(), more.detections.end(),
                std::back_inserter(effects.detections));
    }
    it = votes_.find(message.candidate);
  }
  VoteState& state = it->second;
  const auto slot_it = slot_by_node_.find(from);
  if (slot_it == slot_by_node_.end()) return nullptr;  // not a tree neighbour
  EdgeState& edge = state.edges[slot_it->second - 1];
  if (!edge.contacted) {
    edge.first_received = message.counter;
    edge.contacted = true;
  }
  edge.received = message.counter;
  return &*it;
}

Broker::Effects Broker::on_receive(net::NodeId from,
                                   const SecureRuleMessage& message) {
  Effects effects;
  if (VoteEntry* entry = accept_message(from, message, effects))
    evaluate_edges(entry->first, entry->second, effects);
  return effects;
}

Broker::Effects Broker::store_received(net::NodeId from,
                                       const SecureRuleMessage& message) {
  Effects effects;
  if (VoteEntry* entry = accept_message(from, message, effects))
    mark_dirty(*entry);
  return effects;
}

void Broker::refresh_input(const arm::Candidate& rule) {
  refresh_input(rule, accountant_->reply(rule));
}

void Broker::refresh_input(const arm::Candidate& rule, hom::Cipher input) {
  VoteEntry& entry = vote_entry(rule);
  entry.second.input = std::move(input);
  entry.second.has_input = true;
  mark_dirty(entry);
}

Broker::Effects Broker::flush_dirty() {
  Effects effects;
  flush_dirty(effects);
  return effects;
}

void Broker::flush_dirty(Effects& effects) {
  effects.clear();
  // Flush in first-touch order (deterministic: message arrival and
  // accountant refresh order are both fixed by the event schedule). Indexed
  // loop in case an evaluation ever marks entries dirty again.
  for (std::size_t i = 0; i < dirty_list_.size(); ++i) {
    VoteEntry* entry = dirty_list_[i];
    entry->second.dirty = false;
    evaluate_edges(entry->first, entry->second, effects);
  }
  dirty_list_.clear();
}

Broker::Effects Broker::generate_candidates() {
  Effects effects;
  generate_candidates(effects);
  return effects;
}

void Broker::generate_candidates(Effects& effects) {
  effects.clear();
  // Query every candidate's correctness through the output SFE. Aggregates
  // are built first (in iteration order — that fixes the rng draw
  // sequence), then decrypted as one batch, then judged serially in the
  // same order.
  arm::CandidateSet correct;
  std::vector<const arm::Candidate*> candidates;
  std::vector<hom::Cipher> aggregates;
  candidates.reserve(votes_.size());
  aggregates.reserve(votes_.size());
  for (auto& [candidate, state] : votes_) {
    candidates.push_back(&candidate);
    aggregates.push_back(build_aggregate(state));
  }
  std::vector<const hom::Cipher*> agg_ptrs;
  agg_ptrs.reserve(aggregates.size());
  for (const hom::Cipher& agg : aggregates) agg_ptrs.push_back(&agg);
  const auto views = controller_->decrypt_views(agg_ptrs, executor_);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    auto decision = controller_->sfe_output(*candidates[i], views[i]);
    for (auto& d : decision.detections) effects.detections.push_back(d);
    outputs_[*candidates[i]] = decision.correct;
    if (decision.correct) correct.insert(*candidates[i]);
  }
  for (const auto& fresh : arm::derive_candidates(correct, known_)) {
    Effects more = register_candidate(fresh);
    std::move(more.messages.begin(), more.messages.end(),
              std::back_inserter(effects.messages));
    std::move(more.detections.begin(), more.detections.end(),
              std::back_inserter(effects.detections));
  }
}

bool Broker::output_answer(const arm::Candidate& candidate) const {
  const auto it = outputs_.find(candidate);
  return it != outputs_.end() && it->second;
}

arm::RuleSet Broker::interim() const {
  arm::RuleSet out;
  for (const auto& [candidate, answer] : outputs_) {
    if (!answer) continue;
    if (candidate.kind == arm::VoteKind::kFrequency) {
      out.insert(candidate.rule);
      continue;
    }
    if (output_answer(arm::frequency_candidate(candidate.rule.all_items())))
      out.insert(candidate.rule);
  }
  return out;
}

}  // namespace kgrid::core
