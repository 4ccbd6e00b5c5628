open Objmodel

type per_object = {
  mutable messages : int;
  mutable control_messages : int;
  mutable control_bytes : int;
  mutable data_messages : int;
  mutable data_bytes : int;
  mutable demand_fetches : int;
  mutable acquisitions : int;
}

type totals = {
  roots_committed : int;
  roots_aborted : int;
  deadlock_aborts : int;
  sub_aborts : int;
  retries : int;
  local_acquisitions : int;
  global_acquisitions : int;
  upgrades : int;
  eager_pushes : int;
  demand_fetches : int;
  drops : int;
  duplicates : int;
  retransmits : int;
  timeouts : int;
  gdo_releases : int;
  lease_grants : int;
  lease_hits : int;
  lease_recalls : int;
  lease_yields : int;
  lease_expiries : int;
  lease_aborts : int;
  give_ups : int;
  crash_aborts : int;
  nodes_declared_dead : int;
  families_reclaimed : int;
  failovers : int;
  quorum_votes : int;
  false_suspicions : int;
  node_readmissions : int;
  stale_epoch_rejects : int;
  fence_deferrals : int;
  node_parks : int;
  acks_piggybacked : int;
  acks_flushed : int;
  fetches_aggregated : int;
  releases_coalesced : int;
  heartbeats_suppressed : int;
  cache_hits : int;
  cache_misses : int;
  cache_fills : int;
  cache_invalidations : int;
  ships : int;
  ship_declines : int;
  ships_forced : int;
  ship_bytes_saved : int;
  escrow_reserves : int;
  escrow_local_commits : int;
  escrow_reconciles : int;
  escrow_recalls : int;
  escrow_yields : int;
  escrow_refusals : int;
  escrow_quota_units : int;
}

type t = {
  (* Indexed by object id; traffic tagged [untagged] has its own slot,
     since an array indexed up to that sentinel would take gigabytes. *)
  objects : per_object option Oid.Vec.t;
  mutable untagged_entry : per_object option;
  mutable roots_committed : int;
  mutable roots_aborted : int;
  mutable deadlock_aborts : int;
  mutable sub_aborts : int;
  mutable retries : int;
  mutable local_acquisitions : int;
  mutable global_acquisitions : int;
  mutable upgrades : int;
  mutable eager_pushes : int;
  mutable drops : int;
  mutable duplicates : int;
  mutable retransmits : int;
  mutable timeouts : int;
  mutable gdo_releases : int;
  mutable lease_grants : int;
  mutable lease_hits : int;
  mutable lease_recalls : int;
  mutable lease_yields : int;
  mutable lease_expiries : int;
  mutable lease_aborts : int;
  mutable give_ups : int;
  mutable crash_aborts : int;
  mutable nodes_declared_dead : int;
  mutable families_reclaimed : int;
  mutable failovers : int;
  mutable quorum_votes : int;
  mutable false_suspicions : int;
  mutable node_readmissions : int;
  mutable stale_epoch_rejects : int;
  mutable fence_deferrals : int;
  mutable node_parks : int;
  mutable acks_piggybacked : int;
  mutable acks_flushed : int;
  mutable fetches_aggregated : int;
  mutable releases_coalesced : int;
  mutable heartbeats_suppressed : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_fills : int;
  mutable cache_invalidations : int;
  mutable ships : int;
  mutable ship_declines : int;
  mutable ships_forced : int;
  mutable ship_bytes_saved : int;
  mutable escrow_reserves : int;
  mutable escrow_local_commits : int;
  mutable escrow_reconciles : int;
  mutable escrow_recalls : int;
  mutable escrow_yields : int;
  mutable escrow_refusals : int;
  mutable escrow_quota_units : int;
  mutable completion_time_us : float;
  size_buckets : int array;  (* power-of-two message size histogram *)
  (* Per-message-type ledger, indexed by Wire.index; reconciles exactly with
     the per-object message/byte totals (every remote send is recorded in
     both, retransmitted copies included). *)
  wire_counts : int array;
  wire_bytes : int array;
  (* Riders: control payloads combined onto a carrier message of another
     type (piggybacked acks, traffic-suppressed heartbeats). A rider adds
     its bytes under its own type but zero messages — the carrier already
     counted one message and its total (base + rider) bytes went on the
     wire — so both reconciliation equalities keep holding exactly. *)
  wire_riders : int array;
  (* Latency histograms (HDR-style, see Histogram). *)
  acquire_latency : Histogram.t;
  commit_latency : Histogram.t;
  recall_latency : Histogram.t;
  recovery_latency : Histogram.t;
  declaration_latency : Histogram.t;
}

let bucket_bounds = [| 128; 256; 512; 1024; 2048; 4096; 8192; max_int |]

let untagged = Oid.of_int 0x3FFFFFFF

let create () =
  {
    objects = Oid.Vec.create ~default:None;
    untagged_entry = None;
    roots_committed = 0;
    roots_aborted = 0;
    deadlock_aborts = 0;
    sub_aborts = 0;
    retries = 0;
    local_acquisitions = 0;
    global_acquisitions = 0;
    upgrades = 0;
    eager_pushes = 0;
    drops = 0;
    duplicates = 0;
    retransmits = 0;
    timeouts = 0;
    gdo_releases = 0;
    lease_grants = 0;
    lease_hits = 0;
    lease_recalls = 0;
    lease_yields = 0;
    lease_expiries = 0;
    lease_aborts = 0;
    give_ups = 0;
    crash_aborts = 0;
    nodes_declared_dead = 0;
    families_reclaimed = 0;
    failovers = 0;
    quorum_votes = 0;
    false_suspicions = 0;
    node_readmissions = 0;
    stale_epoch_rejects = 0;
    fence_deferrals = 0;
    node_parks = 0;
    acks_piggybacked = 0;
    acks_flushed = 0;
    fetches_aggregated = 0;
    releases_coalesced = 0;
    heartbeats_suppressed = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_fills = 0;
    cache_invalidations = 0;
    ships = 0;
    ship_declines = 0;
    ships_forced = 0;
    ship_bytes_saved = 0;
    escrow_reserves = 0;
    escrow_local_commits = 0;
    escrow_reconciles = 0;
    escrow_recalls = 0;
    escrow_yields = 0;
    escrow_refusals = 0;
    escrow_quota_units = 0;
    completion_time_us = 0.0;
    size_buckets = Array.make (Array.length bucket_bounds) 0;
    wire_counts = Array.make Wire.count 0;
    wire_bytes = Array.make Wire.count 0;
    wire_riders = Array.make Wire.count 0;
    acquire_latency = Histogram.create ();
    commit_latency = Histogram.create ();
    recall_latency = Histogram.create ();
    recovery_latency = Histogram.create ();
    declaration_latency = Histogram.create ();
  }

let zero () =
  {
    messages = 0;
    control_messages = 0;
    control_bytes = 0;
    data_messages = 0;
    data_bytes = 0;
    demand_fetches = 0;
    acquisitions = 0;
  }

let find t oid = if Oid.equal oid untagged then t.untagged_entry else Oid.Vec.get t.objects oid

let entry t oid =
  match find t oid with
  | Some e -> e
  | None ->
      let e = zero () in
      if Oid.equal oid untagged then t.untagged_entry <- Some e
      else Oid.Vec.set t.objects oid (Some e);
      e

(* Every per-object entry, untagged last (it sorts after every real id). *)
let fold_entries f t init =
  let acc =
    Oid.Vec.fold (fun _ e acc -> match e with Some e -> f e acc | None -> acc) t.objects init
  in
  match t.untagged_entry with Some e -> f e acc | None -> acc

let record_message t ~oid ~kind ~bytes =
  let rec bucket i = if bytes <= bucket_bounds.(i) then i else bucket (i + 1) in
  let b = bucket 0 in
  t.size_buckets.(b) <- t.size_buckets.(b) + 1;
  let e = entry t oid in
  e.messages <- e.messages + 1;
  match (kind : Sim.Network.kind) with
  | Control ->
      e.control_messages <- e.control_messages + 1;
      e.control_bytes <- e.control_bytes + bytes
  | Data ->
      e.data_messages <- e.data_messages + 1;
      e.data_bytes <- e.data_bytes + bytes

let record_wire t ~mtype ~bytes =
  let i = Wire.index mtype in
  t.wire_counts.(i) <- t.wire_counts.(i) + 1;
  t.wire_bytes.(i) <- t.wire_bytes.(i) + bytes

let record_rider t ~mtype ~count ~bytes =
  let i = Wire.index mtype in
  t.wire_riders.(i) <- t.wire_riders.(i) + count;
  t.wire_bytes.(i) <- t.wire_bytes.(i) + bytes

let wire_breakdown t =
  List.map (fun w -> (w, t.wire_counts.(Wire.index w), t.wire_bytes.(Wire.index w))) Wire.all

let wire_rider_breakdown t =
  List.map (fun w -> (w, t.wire_riders.(Wire.index w))) Wire.all

let wire_messages_total t = Array.fold_left ( + ) 0 t.wire_counts
let wire_bytes_total t = Array.fold_left ( + ) 0 t.wire_bytes
let wire_riders_total t = Array.fold_left ( + ) 0 t.wire_riders

let acquire_latency t = t.acquire_latency
let commit_latency t = t.commit_latency
let recall_latency t = t.recall_latency
let recovery_latency t = t.recovery_latency
let declaration_latency t = t.declaration_latency

let record_acquire_latency_us t v = Histogram.record t.acquire_latency v
let record_commit_latency_us t v = Histogram.record t.commit_latency v
let record_recall_latency_us t v = Histogram.record t.recall_latency v
let record_recovery_latency_us t v = Histogram.record t.recovery_latency v
let record_declaration_latency_us t v = Histogram.record t.declaration_latency v

let record_demand_fetch t ~oid =
  let e = entry t oid in
  e.demand_fetches <- e.demand_fetches + 1

let record_acquisition t ~oid =
  let e = entry t oid in
  e.acquisitions <- e.acquisitions + 1

let incr_roots_committed t = t.roots_committed <- t.roots_committed + 1
let incr_roots_aborted t = t.roots_aborted <- t.roots_aborted + 1
let incr_deadlock_aborts t = t.deadlock_aborts <- t.deadlock_aborts + 1
let incr_sub_aborts t = t.sub_aborts <- t.sub_aborts + 1
let incr_retries t = t.retries <- t.retries + 1
let incr_local_acquisitions t = t.local_acquisitions <- t.local_acquisitions + 1
let incr_global_acquisitions t = t.global_acquisitions <- t.global_acquisitions + 1
let incr_upgrades t = t.upgrades <- t.upgrades + 1
let incr_eager_pushes t = t.eager_pushes <- t.eager_pushes + 1
let incr_drops t = t.drops <- t.drops + 1
let incr_duplicates t = t.duplicates <- t.duplicates + 1
let incr_retransmits t = t.retransmits <- t.retransmits + 1
let incr_timeouts t = t.timeouts <- t.timeouts + 1
let incr_gdo_releases t = t.gdo_releases <- t.gdo_releases + 1
let incr_lease_grants t = t.lease_grants <- t.lease_grants + 1
let incr_lease_hits t = t.lease_hits <- t.lease_hits + 1
let add_lease_recalls t n = t.lease_recalls <- t.lease_recalls + n
let incr_lease_yields t = t.lease_yields <- t.lease_yields + 1
let incr_lease_expiries t = t.lease_expiries <- t.lease_expiries + 1
let incr_lease_aborts t = t.lease_aborts <- t.lease_aborts + 1
let incr_give_ups t = t.give_ups <- t.give_ups + 1
let incr_crash_aborts t = t.crash_aborts <- t.crash_aborts + 1
let incr_nodes_declared_dead t = t.nodes_declared_dead <- t.nodes_declared_dead + 1
let add_families_reclaimed t n = t.families_reclaimed <- t.families_reclaimed + n
let incr_failovers t = t.failovers <- t.failovers + 1
let incr_quorum_votes t = t.quorum_votes <- t.quorum_votes + 1
let incr_false_suspicions t = t.false_suspicions <- t.false_suspicions + 1
let incr_node_readmissions t = t.node_readmissions <- t.node_readmissions + 1
let incr_stale_epoch_rejects t = t.stale_epoch_rejects <- t.stale_epoch_rejects + 1
let incr_fence_deferrals t = t.fence_deferrals <- t.fence_deferrals + 1
let incr_node_parks t = t.node_parks <- t.node_parks + 1
let add_acks_piggybacked t n = t.acks_piggybacked <- t.acks_piggybacked + n
let add_acks_flushed t n = t.acks_flushed <- t.acks_flushed + n
let add_fetches_aggregated t n = t.fetches_aggregated <- t.fetches_aggregated + n
let add_releases_coalesced t n = t.releases_coalesced <- t.releases_coalesced + n
let incr_heartbeats_suppressed t = t.heartbeats_suppressed <- t.heartbeats_suppressed + 1
let incr_cache_hits t = t.cache_hits <- t.cache_hits + 1
let incr_cache_misses t = t.cache_misses <- t.cache_misses + 1
let incr_cache_fills t = t.cache_fills <- t.cache_fills + 1
let add_cache_invalidations t n = t.cache_invalidations <- t.cache_invalidations + n
let incr_ships t = t.ships <- t.ships + 1
let incr_ship_declines t = t.ship_declines <- t.ship_declines + 1
let incr_ships_forced t = t.ships_forced <- t.ships_forced + 1
let add_ship_bytes_saved t n = t.ship_bytes_saved <- t.ship_bytes_saved + n
let incr_escrow_reserves t = t.escrow_reserves <- t.escrow_reserves + 1
let incr_escrow_local_commits t = t.escrow_local_commits <- t.escrow_local_commits + 1
let incr_escrow_reconciles t = t.escrow_reconciles <- t.escrow_reconciles + 1
let incr_escrow_recalls t = t.escrow_recalls <- t.escrow_recalls + 1
let incr_escrow_yields t = t.escrow_yields <- t.escrow_yields + 1
let incr_escrow_refusals t = t.escrow_refusals <- t.escrow_refusals + 1
let add_escrow_quota_units t n = t.escrow_quota_units <- t.escrow_quota_units + n

(* Home-node lock-protocol operations: every request the GDO home processes
   (acquires, upgrades, release batches) plus lease recall round trips. The
   lease experiment's headline is the reduction of this count. *)
let home_lock_ops t =
  t.global_acquisitions + t.upgrades + t.gdo_releases + t.lease_recalls + t.lease_yields

let totals t =
  let demand =
    fold_entries (fun (e : per_object) acc -> acc + e.demand_fetches) t 0
  in
  {
    roots_committed = t.roots_committed;
    roots_aborted = t.roots_aborted;
    deadlock_aborts = t.deadlock_aborts;
    sub_aborts = t.sub_aborts;
    retries = t.retries;
    local_acquisitions = t.local_acquisitions;
    global_acquisitions = t.global_acquisitions;
    upgrades = t.upgrades;
    eager_pushes = t.eager_pushes;
    demand_fetches = demand;
    drops = t.drops;
    duplicates = t.duplicates;
    retransmits = t.retransmits;
    timeouts = t.timeouts;
    gdo_releases = t.gdo_releases;
    lease_grants = t.lease_grants;
    lease_hits = t.lease_hits;
    lease_recalls = t.lease_recalls;
    lease_yields = t.lease_yields;
    lease_expiries = t.lease_expiries;
    lease_aborts = t.lease_aborts;
    give_ups = t.give_ups;
    crash_aborts = t.crash_aborts;
    nodes_declared_dead = t.nodes_declared_dead;
    families_reclaimed = t.families_reclaimed;
    failovers = t.failovers;
    quorum_votes = t.quorum_votes;
    false_suspicions = t.false_suspicions;
    node_readmissions = t.node_readmissions;
    stale_epoch_rejects = t.stale_epoch_rejects;
    fence_deferrals = t.fence_deferrals;
    node_parks = t.node_parks;
    acks_piggybacked = t.acks_piggybacked;
    acks_flushed = t.acks_flushed;
    fetches_aggregated = t.fetches_aggregated;
    releases_coalesced = t.releases_coalesced;
    heartbeats_suppressed = t.heartbeats_suppressed;
    cache_hits = t.cache_hits;
    cache_misses = t.cache_misses;
    cache_fills = t.cache_fills;
    cache_invalidations = t.cache_invalidations;
    ships = t.ships;
    ship_declines = t.ship_declines;
    ships_forced = t.ships_forced;
    ship_bytes_saved = t.ship_bytes_saved;
    escrow_reserves = t.escrow_reserves;
    escrow_local_commits = t.escrow_local_commits;
    escrow_reconciles = t.escrow_reconciles;
    escrow_recalls = t.escrow_recalls;
    escrow_yields = t.escrow_yields;
    escrow_refusals = t.escrow_refusals;
    escrow_quota_units = t.escrow_quota_units;
  }

let per_object t oid = match find t oid with Some e -> e | None -> zero ()

let objects t =
  let real =
    Oid.Vec.fold
      (fun o e acc -> match e with Some _ -> o :: acc | None -> acc)
      t.objects []
  in
  if Option.is_none t.untagged_entry then real else real @ [ untagged ]

let total_bytes t = fold_entries (fun e acc -> acc + e.control_bytes + e.data_bytes) t 0
let total_data_bytes t = fold_entries (fun e acc -> acc + e.data_bytes) t 0
let total_messages t = fold_entries (fun e acc -> acc + e.messages) t 0

let time_of ~messages ~bytes ~(link : Sim.Network.link) =
  (float_of_int messages *. link.software_cost_us)
  +. (float_of_int bytes *. 8.0 /. link.bandwidth_bps *. 1e6)

let object_time_us t oid ~link =
  let e = per_object t oid in
  time_of ~messages:e.messages ~bytes:(e.control_bytes + e.data_bytes) ~link

let total_time_us t ~link =
  time_of ~messages:(total_messages t) ~bytes:(total_bytes t) ~link

let time_of_am ~control_messages ~data_messages ~bytes ~(link : Sim.Network.link)
    ~control_software_cost_us =
  (float_of_int control_messages *. control_software_cost_us)
  +. (float_of_int data_messages *. link.software_cost_us)
  +. (float_of_int bytes *. 8.0 /. link.bandwidth_bps *. 1e6)

let object_time_us_am t oid ~link ~control_software_cost_us =
  let e = per_object t oid in
  time_of_am ~control_messages:e.control_messages ~data_messages:e.data_messages
    ~bytes:(e.control_bytes + e.data_bytes) ~link ~control_software_cost_us

(* The cost model is linear, so the integer totals give the sum over
   objects — without a float sum whose rounding would follow table order. *)
let total_time_us_am t ~link ~control_software_cost_us =
  let control_messages, data_messages =
    fold_entries (fun e (c, d) -> (c + e.control_messages, d + e.data_messages)) t (0, 0)
  in
  time_of_am ~control_messages ~data_messages ~bytes:(total_bytes t) ~link
    ~control_software_cost_us

let size_histogram t =
  Array.to_list (Array.mapi (fun i count -> (bucket_bounds.(i), count)) t.size_buckets)

let completion_time_us t = t.completion_time_us
let set_completion_time_us t v = t.completion_time_us <- v

let pp_summary fmt t =
  let tt = totals t in
  Format.fprintf fmt
    "@[<v>roots committed: %d (aborted %d, deadlock aborts %d, retries %d)@,\
     sub-transaction aborts: %d@,\
     lock acquisitions: %d local, %d global, %d upgrades@,\
     demand fetches: %d; eager pushes: %d@,"
    tt.roots_committed tt.roots_aborted tt.deadlock_aborts tt.retries tt.sub_aborts
    tt.local_acquisitions tt.global_acquisitions tt.upgrades tt.demand_fetches
    tt.eager_pushes;
  (* The fault line only appears when fault injection actually fired, so
     fault-free runs print byte-for-byte what they always did. *)
  if tt.drops + tt.duplicates + tt.retransmits + tt.timeouts > 0 then
    Format.fprintf fmt "faults: %d drops, %d duplicates, %d retransmits, %d timeouts@,"
      tt.drops tt.duplicates tt.retransmits tt.timeouts;
  (* Likewise the lease line: absent unless the lease subsystem did work. *)
  if tt.lease_grants + tt.lease_hits + tt.lease_recalls + tt.lease_aborts > 0 then
    Format.fprintf fmt
      "leases: %d grants, %d hits, %d recalls, %d yields, %d expiries, %d aborts@,"
      tt.lease_grants tt.lease_hits tt.lease_recalls tt.lease_yields tt.lease_expiries
      tt.lease_aborts;
  (* Crash-recovery line: absent unless crash windows actually fired. *)
  if
    tt.give_ups + tt.crash_aborts + tt.nodes_declared_dead + tt.families_reclaimed
    + tt.failovers
    > 0
  then
    Format.fprintf fmt
      "crashes: %d crash aborts, %d give-ups, %d declared dead, %d reclaimed, %d failovers@,"
      tt.crash_aborts tt.give_ups tt.nodes_declared_dead tt.families_reclaimed tt.failovers;
  (* Membership line: absent unless the quorum detector did work. *)
  if
    tt.quorum_votes + tt.false_suspicions + tt.node_readmissions + tt.stale_epoch_rejects
    + tt.fence_deferrals + tt.node_parks
    > 0
  then
    Format.fprintf fmt
      "membership: %d votes, %d false suspicions, %d readmissions, %d stale-epoch rejects, \
       %d fence deferrals, %d parks@,"
      tt.quorum_votes tt.false_suspicions tt.node_readmissions tt.stale_epoch_rejects
      tt.fence_deferrals tt.node_parks;
  (* Batching line: absent unless the combining layer actually combined. *)
  if
    tt.acks_piggybacked + tt.acks_flushed + tt.fetches_aggregated + tt.releases_coalesced
    + tt.heartbeats_suppressed
    > 0
  then
    Format.fprintf fmt
      "batching: %d acks piggybacked (%d flushed), %d fetch pages aggregated, %d releases \
       coalesced, %d heartbeats suppressed@,"
      tt.acks_piggybacked tt.acks_flushed tt.fetches_aggregated tt.releases_coalesced
      tt.heartbeats_suppressed;
  (* Method-cache line: absent unless the cache saw any traffic. *)
  if tt.cache_hits + tt.cache_misses + tt.cache_fills + tt.cache_invalidations > 0 then
    Format.fprintf fmt "method cache: %d hits, %d misses, %d fills, %d invalidations@,"
      tt.cache_hits tt.cache_misses tt.cache_fills tt.cache_invalidations;
  (* Shipping line: absent unless the shipping cost model ever ran. *)
  if tt.ships + tt.ship_declines + tt.ships_forced > 0 then
    Format.fprintf fmt
      "shipping: %d shipped (%d forced to pinned site), %d stayed, ~%d B predicted saved@,"
      tt.ships tt.ships_forced tt.ship_declines tt.ship_bytes_saved;
  (* Escrow line: absent unless the escrow subsystem did work. *)
  if
    tt.escrow_reserves + tt.escrow_local_commits + tt.escrow_refusals + tt.escrow_recalls
    + tt.escrow_quota_units
    > 0
  then
    Format.fprintf fmt
      "escrow: %d reserved, %d local commits, %d reconciles, %d recalls (%d yields), \
       %d refusals, %d quota units@,"
      tt.escrow_reserves tt.escrow_local_commits tt.escrow_reconciles tt.escrow_recalls
      tt.escrow_yields tt.escrow_refusals tt.escrow_quota_units;
  Format.fprintf fmt "traffic: %d messages, %d bytes (%d data)@,completion: %.1f us@]"
    (total_messages t) (total_bytes t) (total_data_bytes t) t.completion_time_us

let pp_wire_breakdown fmt t =
  (* The riders column only appears when something actually rode, so runs
     without batching print byte-for-byte what they always did. *)
  let riders = wire_riders_total t in
  if riders = 0 then begin
    Format.fprintf fmt "@[<v>%-16s %10s %12s %10s@," "message type" "messages" "bytes" "b/msg";
    List.iter
      (fun (w, msgs, bytes) ->
        if msgs > 0 then
          Format.fprintf fmt "%-16s %10d %12d %10.1f@," (Wire.to_string w) msgs bytes
            (float_of_int bytes /. float_of_int msgs))
      (wire_breakdown t);
    Format.fprintf fmt "%-16s %10d %12d@]" "total" (wire_messages_total t)
      (wire_bytes_total t)
  end
  else begin
    Format.fprintf fmt "@[<v>%-16s %10s %12s %10s %8s@," "message type" "messages" "bytes"
      "b/msg" "riders";
    List.iter
      (fun (w, msgs, bytes) ->
        let r = t.wire_riders.(Wire.index w) in
        if msgs > 0 || r > 0 then
          let per_msg = if msgs > 0 then float_of_int bytes /. float_of_int msgs else 0.0 in
          Format.fprintf fmt "%-16s %10d %12d %10.1f %8d@," (Wire.to_string w) msgs bytes
            per_msg r)
      (wire_breakdown t);
    Format.fprintf fmt "%-16s %10d %12d %10s %8d@]" "total" (wire_messages_total t)
      (wire_bytes_total t) "" riders
  end

let pp_latencies fmt t =
  Format.fprintf fmt "@[<v>acquire latency: %a@,commit latency:  %a" Histogram.pp
    t.acquire_latency Histogram.pp t.commit_latency;
  if Histogram.count t.recall_latency > 0 then
    Format.fprintf fmt "@,recall-to-clear: %a" Histogram.pp t.recall_latency;
  if Histogram.count t.recovery_latency > 0 then
    Format.fprintf fmt "@,crash recovery:  %a" Histogram.pp t.recovery_latency;
  if Histogram.count t.declaration_latency > 0 then
    Format.fprintf fmt "@,dead declaration:%a" Histogram.pp t.declaration_latency;
  Format.fprintf fmt "@]"
