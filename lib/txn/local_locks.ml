open Objmodel

type waiter = { w_txn : Txn_id.t; w_mode : Lock.mode; w_wake : unit -> unit }

(* Cached state of one family's global lock on one object. *)
type family_entry = {
  f_root : Txn_id.t;
  mutable f_mode : Lock.mode;  (* mode the GDO granted to this family *)
  mutable holders : (Txn_id.t * Lock.mode) list;
  mutable retained : (Txn_id.t * Lock.mode) list;
  mutable waiters : waiter list;  (* FIFO: append at tail *)
}

type outcome = Granted | Queued | Not_cached | Needs_upgrade

type t = {
  tree : Txn_tree.t;
  (* An object may be cached by several co-located families simultaneously
     (concurrent global readers), hence a list; [] while no family caches
     it. Indexed by object id. *)
  entries : family_entry list Oid.Vec.t;
  (* family -> its cached entries, newest grant first. Pre-commit, abort and
     root release walk this index, so their cost follows the family's own
     footprint rather than every object the site has ever cached. *)
  families : (Oid.t * family_entry) list Txn_id.Slab.t;
}

let create tree =
  { tree; entries = Oid.Vec.create ~default:[]; families = Txn_id.Slab.create ~dummy:[] }

let rec find_in family = function
  | [] -> raise Not_found
  | e :: rest -> if Txn_id.equal e.f_root family then e else find_in family rest

(* @raise Not_found when the family caches nothing on the object. *)
let find_family_entry t oid ~family = find_in family (Oid.Vec.get t.entries oid)

let object_count t = Oid.Vec.fold (fun _ l n -> match l with [] -> n | _ :: _ -> n + 1) t.entries 0

(* Rule 1, with the permissive ancestor-hold extension: [txn] may take the
   lock if (a) every retainer is an ancestor of [txn], and (b) no
   *non-ancestor* holder conflicts with the requested mode. *)
let grantable t e ~txn ~mode =
  let is_anc other = Txn_tree.is_strict_ancestor t.tree ~ancestor:other txn in
  List.for_all (fun (r, _) -> is_anc r) e.retained
  && List.for_all
       (fun (h, hm) -> Txn_id.equal h txn || is_anc h || not (Lock.conflicts hm mode))
       e.holders

let add_holder e txn mode =
  (* A transaction re-acquiring in a stronger mode replaces its entry. *)
  let rest = List.filter (fun (h, _) -> not (Txn_id.equal h txn)) e.holders in
  let prev_mode =
    List.assoc_opt txn (List.filter (fun (h, _) -> Txn_id.equal h txn) e.holders)
  in
  let mode = match prev_mode with Some m -> Lock.max m mode | None -> mode in
  e.holders <- (txn, mode) :: rest

let wake_grantable t e =
  (* Grant to waiters (FIFO) while the head is grantable. *)
  let rec loop () =
    match e.waiters with
    | [] -> ()
    | w :: rest ->
        if grantable t e ~txn:w.w_txn ~mode:w.w_mode then begin
          e.waiters <- rest;
          add_holder e w.w_txn w.w_mode;
          w.w_wake ();
          loop ()
        end
  in
  loop ()

let acquire t oid ~txn ~mode ~wake =
  let family = Txn_tree.root_of t.tree txn in
  match find_family_entry t oid ~family with
  | exception Not_found -> Not_cached
  | e ->
      if Lock.equal mode Lock.Write && Lock.equal e.f_mode Lock.Read then Needs_upgrade
      else if grantable t e ~txn ~mode then begin
        add_holder e txn mode;
        Granted
      end
      else begin
        e.waiters <- e.waiters @ [ { w_txn = txn; w_mode = mode; w_wake = wake } ];
        Queued
      end

let install_grant t oid ~txn ~mode =
  let family = Txn_tree.root_of t.tree txn in
  (match find_family_entry t oid ~family with
  | _ -> invalid_arg "Local_locks.install_grant: family already caches this object"
  | exception Not_found -> ());
  let e =
    { f_root = family; f_mode = mode; holders = [ (txn, mode) ]; retained = []; waiters = [] }
  in
  Oid.Vec.set t.entries oid (e :: Oid.Vec.get t.entries oid);
  let mine = match Txn_id.Slab.get t.families family with l -> l | exception Not_found -> [] in
  Txn_id.Slab.replace t.families family ((oid, e) :: mine)

let upgrade_granted t oid ~txn =
  let family = Txn_tree.root_of t.tree txn in
  match find_family_entry t oid ~family with
  | exception Not_found -> invalid_arg "Local_locks.upgrade_granted: no cached entry"
  | e ->
      e.f_mode <- Lock.Write;
      add_holder e txn Lock.Write

let family_mode t oid ~family =
  match find_family_entry t oid ~family with
  | exception Not_found -> None
  | e -> Some e.f_mode

let held_mode t oid ~txn =
  let family = Txn_tree.root_of t.tree txn in
  match find_family_entry t oid ~family with
  | exception Not_found -> None
  | e ->
      List.fold_left
        (fun acc (h, m) -> if Txn_id.equal h txn then Some m else acc)
        None e.holders

let retainers t oid ~family =
  match find_family_entry t oid ~family with exception Not_found -> [] | e -> e.retained

(* Iterate over every entry belonging to [family], in grant-install order. *)
let iter_family_entries t ~family f =
  match Txn_id.Slab.get t.families family with
  | exception Not_found -> ()
  | l -> List.iter (fun (oid, e) -> f oid e) (List.rev l)

(* Drop [family]'s entry on [oid]. *)
let drop_entry t oid ~family =
  match Oid.Vec.get t.entries oid with
  | [] -> ()
  | l -> Oid.Vec.set t.entries oid (List.filter (fun e -> not (Txn_id.equal e.f_root family)) l)

let add_retained e txn mode =
  let prev = List.assoc_opt txn e.retained in
  let rest = List.filter (fun (r, _) -> not (Txn_id.equal r txn)) e.retained in
  let mode = match prev with Some m -> Lock.max m mode | None -> mode in
  e.retained <- (txn, mode) :: rest

let precommit t txn =
  let parent =
    match Txn_tree.parent t.tree txn with
    | Some p -> p
    | None -> invalid_arg "Local_locks.precommit: root transactions use root_release"
  in
  let family = Txn_tree.root_of t.tree txn in
  iter_family_entries t ~family (fun _oid e ->
      let held = List.filter (fun (h, _) -> Txn_id.equal h txn) e.holders in
      let kept = List.filter (fun (r, _) -> not (Txn_id.equal r txn)) e.retained in
      let mine = List.filter (fun (r, _) -> Txn_id.equal r txn) e.retained in
      if held <> [] || mine <> [] then begin
        e.holders <- List.filter (fun (h, _) -> not (Txn_id.equal h txn)) e.holders;
        e.retained <- kept;
        List.iter (fun (_, m) -> add_retained e parent m) held;
        List.iter (fun (_, m) -> add_retained e parent m) mine;
        wake_grantable t e
      end)

let abort t txn ~to_release =
  let family = Txn_tree.root_of t.tree txn in
  let empty_objects = ref [] in
  iter_family_entries t ~family (fun oid e ->
      let involved =
        List.exists (fun (h, _) -> Txn_id.equal h txn) e.holders
        || List.exists (fun (r, _) -> Txn_id.equal r txn) e.retained
      in
      if involved then begin
        e.holders <- List.filter (fun (h, _) -> not (Txn_id.equal h txn)) e.holders;
        e.retained <- List.filter (fun (r, _) -> not (Txn_id.equal r txn)) e.retained;
        (* An ancestor who retains keeps retaining: nothing to do — its entry
           is untouched. If the family no longer has any interest, the global
           lock goes back to the GDO. *)
        if e.holders = [] && e.retained = [] && e.waiters = [] then
          empty_objects := oid :: !empty_objects
        else wake_grantable t e
      end);
  let emptied = List.rev !empty_objects in
  if emptied <> [] then begin
    let kept (oid, _) = not (List.exists (Oid.equal oid) emptied) in
    (match Txn_id.Slab.get t.families family with
    | exception Not_found -> ()
    | l -> (
        match List.filter kept l with
        | [] -> Txn_id.Slab.remove t.families family
        | rest -> Txn_id.Slab.replace t.families family rest));
    List.iter
      (fun oid ->
        drop_entry t oid ~family;
        to_release oid)
      emptied
  end

let root_release t ~root =
  let released = ref [] in
  iter_family_entries t ~family:root (fun oid _ ->
      drop_entry t oid ~family:root;
      released := oid :: !released);
  Txn_id.Slab.remove t.families root;
  List.sort_uniq Oid.compare !released

let objects_of_family t ~family =
  let acc = ref [] in
  iter_family_entries t ~family (fun oid _ -> acc := oid :: !acc);
  List.sort_uniq Oid.compare !acc

let family_capacity t = Txn_id.Slab.capacity t.families
