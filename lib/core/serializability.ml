open Objmodel
open Txn

type access = { oid : Oid.t; page : int; version : int }

type committed_root = { root : Txn_id.t; reads : access list; writes : access list }

type verdict = Serializable of Txn_id.t list | Cyclic of Txn_id.t list

let compare_access a b =
  let c = Oid.compare a.oid b.oid in
  if c <> 0 then c
  else
    let c = Int.compare a.page b.page in
    if c <> 0 then c else Int.compare a.version b.version

let dedup_accesses accesses = List.sort_uniq compare_access accesses

module PageTable = Hashtbl.Make (struct
  type t = Oid.t * int

  let equal (o1, p1) (o2, p2) = Oid.equal o1 o2 && Int.equal p1 p2
  let hash (o, p) = Hashtbl.hash ((Oid.to_int o * 65599) + p)
end)

let edges roots =
  (* Per page, its writes and its reads as (version, root), latest first. *)
  let writers = PageTable.create 1024 and readers = PageTable.create 1024 in
  let log tbl root a =
    let key = (a.oid, a.page) in
    let cur = Option.value ~default:[] (PageTable.find_opt tbl key) in
    PageTable.replace tbl key ((a.version, root) :: cur)
  in
  List.iter
    (fun r ->
      List.iter (log writers r.root) r.writes;
      List.iter (log readers r.root) r.reads)
    roots;
  let acc = ref [] in
  let add a b = if not (Txn_id.equal a b) then acc := (a, b) :: !acc in
  PageTable.iter
    (fun key ws ->
      (* Stable: writers of one version stay latest first (see the .mli). *)
      let ws = Array.of_list ws in
      Array.stable_sort (fun (v1, _) (v2, _) -> Int.compare v1 v2) ws;
      let n = Array.length ws in
      (* Binary search: the index of the first writer of a version above x. *)
      let rec above x lo hi =
        let mid = (lo + hi) / 2 in
        if lo >= hi then lo else if fst ws.(mid) <= x then above x (mid + 1) hi else above x lo mid
      in
      (* ww edges between consecutive writers. *)
      for i = 1 to n - 1 do
        add (snd ws.(i - 1)) (snd ws.(i))
      done;
      List.iter
        (fun (rv, reader) ->
          let next = above rv 0 n in
          (* wr: whoever wrote version rv precedes the reader. *)
          for i = above (rv - 1) 0 next to next - 1 do
            add (snd ws.(i)) reader
          done;
          (* rw: the reader precedes the writer of the next version. *)
          if next < n then add reader (snd ws.(next)))
        (Option.value ~default:[] (PageTable.find_opt readers key)))
    writers;
  let by_edge (a1, b1) (a2, b2) =
    match Txn_id.compare a1 a2 with 0 -> Txn_id.compare b1 b2 | c -> c
  in
  List.sort_uniq by_edge !acc

let check roots =
  (* Dense indices in id order: ids.(i) is the root with index i. *)
  let ids = Array.of_list (List.sort_uniq Txn_id.compare (List.map (fun r -> r.root) roots)) in
  let n = Array.length ids in
  let index = Txn_id.Table.create n in
  Array.iteri (fun i id -> Txn_id.Table.replace index id i) ids;
  (* Successors in descending order, the order the search tries them. *)
  let succs = Array.make n [] in
  List.iter
    (fun (a, b) ->
      let a = Txn_id.Table.find index a in
      succs.(a) <- Txn_id.Table.find index b :: succs.(a))
    (edges roots);
  (* DFS with colours (1 = on the stack, 2 = done) over an explicit stack of
     frames, top first, each a node and its untried successors. The bottom
     frame is a virtual node whose successors are the roots in order.
     Produces reverse topological order or finds a cycle. *)
  let colour = Array.make n 0 and order = ref [] in
  let exception Cycle of Txn_id.t list in
  let enter v frames =
    colour.(v) <- 1;
    (v, succs.(v)) :: frames
  in
  let rec search = function
    | [] | [ (_, []) ] -> ()
    | (u, []) :: up ->
        colour.(u) <- 2;
        order := ids.(u) :: !order;
        search up
    | (u, v :: rest) :: up as frames ->
        if colour.(v) = 0 then search (enter v ((u, rest) :: up))
        else if colour.(v) = 2 then search ((u, rest) :: up)
        else
          (* The cycle runs from v up the stack to its top. *)
          let rec take acc = function
            | (w, _) :: up when w <> v -> take (ids.(w) :: acc) up
            | _ -> ids.(v) :: acc
          in
          raise (Cycle (take [] frames))
  in
  match search [ (-1, List.map (fun r -> Txn_id.Table.find index r.root) roots) ] with
  | () -> Serializable !order
  | exception Cycle c -> Cyclic c

(* --- escrow semantics -------------------------------------------------- *)

type escrow_op =
  | E_reserve of { oid : Oid.t; family : Txn_id.t; delta : int }
  | E_commit of { oid : Oid.t; family : Txn_id.t }
  | E_abort of { oid : Oid.t; family : Txn_id.t }
  | E_delegate of { oid : Oid.t; node : int; up : int; down : int }
  | E_local_commit of { oid : Oid.t; node : int; delta : int }
  | E_reconcile of { oid : Oid.t; node : int; delta : int; used_up : int; used_down : int }
  | E_revoke of { oid : Oid.t; node : int }

(* Replay state of one escrowed object: the home's committed value, the
   outstanding per-family reservations, and per node the remaining delegated
   quota plus the locally committed delta not yet reconciled home. The sums
   over families and nodes are kept running, so each op costs O(1). *)
type obj_state = {
  mutable value : int;
  res : (int * int) Txn_id.Table.t;  (* family -> net delta, op index of its last reserve *)
  mutable worst_up : int;  (* positive net reservations + every node's q_up *)
  mutable worst_down : int;  (* negative net reservations - every node's q_down *)
  mutable unreconciled : int;  (* every node's pending *)
  mutable committed : int;  (* sum of every delta committed so far *)
  nodes : (int, node_state) Hashtbl.t;
}

and node_state = {
  mutable q_up : int;
  mutable q_down : int;
  mutable pending : int;  (* net local-commit delta since the last reconcile *)
  mutable spent_up : int;  (* quota units spent since the last reconcile *)
  mutable spent_down : int;
}

let check_escrow ~lower ~upper ~initial ~ops =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let objects : obj_state option Oid.Vec.t = Oid.Vec.create ~default:None in
  let state oid =
    match Oid.Vec.get objects oid with
    | Some s -> s
    | None ->
        let s =
          { value = initial; res = Txn_id.Table.create 16; worst_up = 0; worst_down = 0;
            unreconciled = 0; committed = 0; nodes = Hashtbl.create 4 }
        in
        Oid.Vec.set objects oid (Some s);
        s
  in
  let node_state s n =
    match Hashtbl.find_opt s.nodes n with
    | Some ns -> ns
    | None ->
        let ns = { q_up = 0; q_down = 0; pending = 0; spent_up = 0; spent_down = 0 } in
        Hashtbl.add s.nodes n ns;
        ns
  in
  (* Move a family's net reservation from [cur] to [d] in the worst cases. *)
  let retally s cur d =
    if cur > 0 then s.worst_up <- s.worst_up - cur else s.worst_down <- s.worst_down - cur;
    if d > 0 then s.worst_up <- s.worst_up + d else s.worst_down <- s.worst_down + d
  in
  let resolve s family =
    let r = Txn_id.Table.find_opt s.res family in
    Option.iter (fun (d, _) -> Txn_id.Table.remove s.res family; retally s d 0) r;
    r
  in
  (* Change a node's quota and pending delta, and the object's sums with them. *)
  let shift s ns ~up ~down ~pending =
    ns.q_up <- ns.q_up + up;
    ns.q_down <- ns.q_down + down;
    ns.pending <- ns.pending + pending;
    s.worst_up <- s.worst_up + up;
    s.worst_down <- s.worst_down - down;
    s.unreconciled <- s.unreconciled + pending
  in
  (* Invariants that must hold after every step: the worst case over all
     outstanding obligations stays in bounds, and the home value plus the
     unreconciled node deltas equals initial + everything committed
     (conservation — no delta is lost or applied twice). *)
  let assert_state i oid s =
    if s.value < lower || s.value > upper then
      err "op %d: %a value %d outside [%d, %d]" i Oid.pp oid s.value lower upper;
    if s.value + s.worst_down < lower then
      err "op %d: %a worst-case low %d breaches floor %d" i Oid.pp oid
        (s.value + s.worst_down) lower;
    if upper - s.value - s.worst_up < 0 then
      err "op %d: %a worst-case high %d breaches ceiling %d" i Oid.pp oid
        (s.value + s.worst_up) upper;
    if s.value + s.unreconciled <> initial + s.committed then
      err "op %d: %a conservation broken: value %d + pending %d <> initial %d + committed %d"
        i Oid.pp oid s.value s.unreconciled initial s.committed
  in
  List.iteri
    (fun i op ->
      match op with
      | E_reserve { oid; family; delta } ->
          let s = state oid in
          (* The log only records admitted reservations; re-run the
             admission test to prove each admission was legal. *)
          let ok =
            if delta < 0 then s.value + s.worst_down - lower + delta >= 0
            else if delta > 0 then upper - s.value - s.worst_up - delta >= 0
            else true
          in
          if not ok then
            err "op %d: %a reservation %+d by %a was admitted but breaches a bound" i Oid.pp
              oid delta Txn_id.pp family;
          let cur = Option.fold ~none:0 ~some:fst (Txn_id.Table.find_opt s.res family) in
          retally s cur (cur + delta);
          Txn_id.Table.replace s.res family (cur + delta, i);
          assert_state i oid s
      | E_commit { oid; family } -> (
          let s = state oid in
          match resolve s family with
          | None -> err "op %d: %a commit by %a with no reservation" i Oid.pp oid Txn_id.pp family
          | Some (d, _) ->
              s.value <- s.value + d;
              s.committed <- s.committed + d;
              assert_state i oid s)
      | E_abort { oid; family } ->
          let s = state oid in
          if Option.is_none (resolve s family) then
            err "op %d: %a abort by %a with no reservation" i Oid.pp oid Txn_id.pp family;
          assert_state i oid s
      | E_delegate { oid; node; up; down } ->
          let s = state oid in
          if up < 0 || down < 0 then err "op %d: %a negative delegation" i Oid.pp oid;
          shift s (node_state s node) ~up ~down ~pending:0;
          assert_state i oid s
      | E_local_commit { oid; node; delta } ->
          let s = state oid in
          let ns = node_state s node in
          if delta > 0 then begin
            if ns.q_up < delta then
              err "op %d: %a node %d local commit %+d exceeds up-quota %d" i Oid.pp oid node
                delta ns.q_up;
            shift s ns ~up:(-delta) ~down:0 ~pending:delta;
            ns.spent_up <- ns.spent_up + delta
          end
          else if delta < 0 then begin
            if ns.q_down < -delta then
              err "op %d: %a node %d local commit %+d exceeds down-quota %d" i Oid.pp oid node
                delta ns.q_down;
            shift s ns ~up:0 ~down:delta ~pending:delta;
            ns.spent_down <- ns.spent_down - delta
          end;
          s.committed <- s.committed + delta;
          assert_state i oid s
      | E_reconcile { oid; node; delta; used_up; used_down } ->
          let s = state oid in
          let ns = node_state s node in
          if delta <> ns.pending then
            err "op %d: %a node %d reconciles %+d but %+d is pending" i Oid.pp oid node delta
              ns.pending;
          if used_up <> ns.spent_up || used_down <> ns.spent_down then
            err "op %d: %a node %d reports quota use %d/%d, spent %d/%d" i Oid.pp oid node
              used_up used_down ns.spent_up ns.spent_down;
          s.value <- s.value + ns.pending;
          shift s ns ~up:0 ~down:0 ~pending:(-ns.pending);
          ns.spent_up <- 0;
          ns.spent_down <- 0;
          assert_state i oid s
      | E_revoke { oid; node } ->
          let s = state oid in
          let ns = node_state s node in
          if ns.pending <> 0 then
            err "op %d: %a node %d quota revoked with %+d unreconciled" i Oid.pp oid node
              ns.pending;
          shift s ns ~up:(-ns.q_up) ~down:(-ns.q_down) ~pending:0;
          assert_state i oid s)
    ops;
  (* End of run: every reservation resolved, every local delta reconciled.
     Objects ascending, then unresolved reservations latest reserve first,
     then nodes ascending. *)
  let by_oid =
    Oid.Vec.fold (fun oid s acc -> match s with Some s -> (oid, s) :: acc | None -> acc) objects []
  in
  List.iter
    (fun (oid, s) ->
      Txn_id.Table.fold (fun f (d, at) acc -> (at, f, d) :: acc) s.res []
      |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare b a)
      |> List.iter (fun (_, f, d) ->
             err "end: %a reservation %+d by %a never resolved" Oid.pp oid d Txn_id.pp f);
      Hashtbl.fold (fun n ns acc -> (n, ns) :: acc) s.nodes []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      |> List.iter (fun (n, ns) ->
             if ns.pending <> 0 then
               err "end: %a node %d still has %+d unreconciled" Oid.pp oid n ns.pending);
      if s.value <> initial + s.committed then
        err "end: %a final value %d <> initial %d + committed %d" Oid.pp oid s.value initial
          s.committed)
    by_oid;
  let finals = List.map (fun (oid, s) -> (oid, s.value)) by_oid in
  if !errors = [] then Ok finals else Error (List.rev !errors)
