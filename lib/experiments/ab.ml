type point = {
  coords : (string * float) list;
  spec : Workload.Spec.t;
  config : Core.Config.t -> Core.Config.t;
}

type mode = { label : string; apply : Core.Config.t -> Core.Config.t }

type row = {
  lever : string;
  protocol : Dsm.Protocol.t;
  point : (string * float) list;
  mode : string;
  committed : int;
  aborted : int;
  messages : int;
  bytes : int;
  completion_us : float;
  counters : (string * int) list;
}

type bound = At_least of float | At_most of float

type gate = { measure : string; bound : bound; value : row list -> float option }

type lever = {
  name : string;
  protocols : Dsm.Protocol.t list;
  points : point list;
  modes : mode list;
  counters : Dsm.Metrics.t -> (string * int) list;
  gates : gate list;
}

let check_invariants (config : Core.Config.t) ~submitted m =
  let open Dsm.Metrics in
  let t = totals m in
  if t.roots_committed + t.roots_aborted <> submitted then
    Printf.ksprintf failwith "root accounting broken: %d committed + %d aborted <> %d submitted"
      t.roots_committed t.roots_aborted submitted;
  (* The wire ledger is recorded at send time, the network ledger at
     delivery; every subsystem's messages (riders, ship and escrow rows
     included) must land in both. *)
  if wire_messages_total m <> total_messages m then
    Printf.ksprintf failwith "wire ledger out of balance: %d wire messages <> %d network messages"
      (wire_messages_total m) (total_messages m);
  if wire_bytes_total m <> total_bytes m then
    Printf.ksprintf failwith "wire ledger out of balance: %d wire bytes <> %d network bytes"
      (wire_bytes_total m) (total_bytes m);
  List.iter
    (fun (subsystem, on, activity) ->
      if (not on) && activity > 0 then
        Printf.ksprintf failwith "%s counters nonzero with %s off" subsystem subsystem)
    [
      ( "lease",
        Gdo.Lease.policy_enabled config.lease,
        t.lease_grants + t.lease_hits + t.lease_recalls + t.lease_yields + t.lease_aborts );
      ( "method-cache",
        Dsm.Method_cache.policy_enabled config.method_cache,
        t.cache_hits + t.cache_misses + t.cache_fills + t.cache_invalidations );
      ( "batching",
        Dsm.Batching.enabled config.batching,
        t.acks_piggybacked + t.acks_flushed + t.fetches_aggregated + t.releases_coalesced
        + t.heartbeats_suppressed + wire_riders_total m );
      ( "shipping",
        Dsm.Shipping.policy_enabled config.shipping,
        t.ships + t.ship_declines + t.ships_forced + t.ship_bytes_saved );
      ( "escrow",
        Dsm.Escrow.policy_enabled config.escrow,
        t.escrow_reserves + t.escrow_local_commits + t.escrow_reconciles + t.escrow_recalls
        + t.escrow_yields + t.escrow_refusals + t.escrow_quota_units );
    ]

let protocol_name p = Format.asprintf "%a" Dsm.Protocol.pp p

let point_name coords =
  String.concat " " (List.map (fun (axis, v) -> Printf.sprintf "%s=%g" axis v) coords)

let execute lever protocol point mode =
  let config = mode.apply (point.config Core.Config.default) in
  let wl = Workload.Generator.generate point.spec ~page_size:config.Core.Config.page_size in
  let run = Runner.execute ~config ~protocol wl in
  let m = Runner.metrics run in
  (try check_invariants config ~submitted:point.spec.Workload.Spec.root_count m
   with Failure msg ->
     Printf.ksprintf failwith "%s [%s %s mode=%s]: %s" lever.name
       (protocol_name protocol) (point_name point.coords) mode.label msg);
  let t = Dsm.Metrics.totals m in
  ( run,
    {
      lever = lever.name;
      protocol;
      point = point.coords;
      mode = mode.label;
      committed = t.Dsm.Metrics.roots_committed;
      aborted = t.Dsm.Metrics.roots_aborted;
      messages = Dsm.Metrics.total_messages m;
      bytes = Dsm.Metrics.total_bytes m;
      completion_us = Dsm.Metrics.completion_time_us m;
      counters = lever.counters m;
    } )

let run lever protocol point mode = snd (execute lever protocol point mode)

let sweep ?protocols lever =
  let protocols = Option.value protocols ~default:lever.protocols in
  List.concat_map
    (fun protocol ->
      List.concat_map
        (fun point -> List.map (run lever protocol point) lever.modes)
        lever.points)
    protocols

let map_spec f lever =
  { lever with points = List.map (fun p -> { p with spec = f p.spec }) lever.points }

let mode lever label = List.find (fun m -> m.label = label) lever.modes

let baseline_of rows r =
  match
    List.find_opt
      (fun b -> b.lever = r.lever && b.protocol = r.protocol && b.point = r.point)
      rows
  with
  | Some b when b.mode <> r.mode -> Some b
  | _ -> None

let ratio f ~baseline r = f r /. f baseline
let counter (r : row) name = List.assoc name r.counters
let coord (r : row) axis = List.assoc axis r.point

let best ~by rows =
  List.fold_left
    (fun acc r -> match acc with Some b when by b >= by r -> acc | _ -> Some r)
    None rows

let evaluate lever rows =
  List.map
    (fun g ->
      match g.value rows with
      | None -> Error (g.measure ^ ": no gate row")
      | Some v -> (
          match g.bound with
          | At_least b when v >= b -> Ok (Printf.sprintf "%s = %.3f (floor %g)" g.measure v b)
          | At_least b -> Error (Printf.sprintf "%s = %.3f below the %g floor" g.measure v b)
          | At_most b when v <= b -> Ok (Printf.sprintf "%s = %.3f (ceiling %g)" g.measure v b)
          | At_most b -> Error (Printf.sprintf "%s = %.3f above the %g ceiling" g.measure v b)))
    lever.gates

let messages r = float_of_int r.messages
let bytes r = float_of_int r.bytes
let completion r = r.completion_us

let pp_report lever fmt rows =
  let axes, counters =
    match rows with [] -> ([], []) | r :: _ -> (List.map fst r.point, List.map fst r.counters)
  in
  let header =
    [ "protocol" ] @ axes
    @ [ "mode"; "ok/roots"; "msgs"; "vs base"; "bytes"; "vs base"; "completion"; "vs base" ]
    @ counters
  in
  let row_cells r =
    let vs f =
      match baseline_of rows r with
      | None -> "-"
      | Some baseline ->
          let x = ratio f ~baseline r in
          if Float.is_finite x then Report.fmt_pct (100.0 *. (x -. 1.0)) else "n/a"
    in
    [ protocol_name r.protocol ]
    @ List.map (fun (_, v) -> Printf.sprintf "%g" v) r.point
    @ [
        r.mode;
        Printf.sprintf "%d/%d" r.committed (r.committed + r.aborted);
        string_of_int r.messages;
        vs messages;
        Report.fmt_bytes r.bytes;
        vs bytes;
        Report.fmt_us r.completion_us;
        vs completion;
      ]
    @ List.map (fun (_, n) -> string_of_int n) r.counters
  in
  let align =
    (Report.Left :: List.map (fun _ -> Report.Right) axes)
    @ (Report.Left :: List.init (7 + List.length counters) (fun _ -> Report.Right))
  in
  Format.fprintf fmt "%s sweep: all invariants held@.%s@." lever.name
    (Report.render ~header ~align (List.map row_cells rows));
  List.iter
    (function
      | Ok v -> Format.fprintf fmt "gate ok:     %s@." v
      | Error e -> Format.fprintf fmt "gate missed: %s@." e)
    (evaluate lever rows)

let json_float x = if Float.is_finite x then Printf.sprintf "%.4f" x else "null"

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let to_json rows =
  let row_json r =
    let vs_baseline =
      match baseline_of rows r with
      | None -> "null"
      | Some baseline ->
          json_object
            (List.map
               (fun (k, f) -> (k, json_float (ratio f ~baseline r)))
               [ ("messages", messages); ("bytes", bytes); ("completion_us", completion) ])
    in
    json_object
      [
        ("lever", Printf.sprintf "%S" r.lever);
        ("protocol", Printf.sprintf "%S" (protocol_name r.protocol));
        ("point", json_object (List.map (fun (k, v) -> (k, Printf.sprintf "%g" v)) r.point));
        ("mode", Printf.sprintf "%S" r.mode);
        ("committed", string_of_int r.committed);
        ("aborted", string_of_int r.aborted);
        ("messages", string_of_int r.messages);
        ("bytes", string_of_int r.bytes);
        ("completion_us", Printf.sprintf "%.3f" r.completion_us);
        ("vs_baseline", vs_baseline);
        ("counters", json_object (List.map (fun (k, n) -> (k, string_of_int n)) r.counters));
      ]
  in
  "[\n" ^ String.concat ",\n" (List.map (fun r -> "  " ^ row_json r) rows) ^ "\n]\n"
