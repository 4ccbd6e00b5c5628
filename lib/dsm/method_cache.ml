open Objmodel

(* Transactional method-result cache (Pfeifer & Lockemann style) keyed by
   (oid, method, version vector of the predicted read set). The cache is a
   pure per-node data structure: the runtime decides when an entry may be
   consulted (only under a valid read lease) and when one may be installed
   (only when the recorded read versions match the leased grant), and the
   lease layer drives invalidation through its recall/eviction hooks. *)

let default_capacity = 256

type policy = Off | Lru of { capacity : int }

let off = Off

let policy_enabled = function Off -> false | Lru _ -> true

let validate_policy = function
  | Off -> Ok ()
  | Lru { capacity } ->
      if capacity > 0 then Ok () else Error "method cache capacity must be positive"

let policy_of_string s =
  match String.lowercase_ascii s with
  | "off" | "none" -> Ok Off
  | "on" | "lru" -> Ok (Lru { capacity = default_capacity })
  | other -> (
      match String.index_opt other ':' with
      | Some i when String.sub other 0 i = "lru" -> (
          let arg = String.sub other (i + 1) (String.length other - i - 1) in
          match int_of_string_opt arg with
          | Some n when n > 0 -> Ok (Lru { capacity = n })
          | Some _ | None ->
              Error (Printf.sprintf "method cache capacity %S must be a positive integer" arg))
      | _ ->
          Error
            (Printf.sprintf "unknown method-cache policy %S (expected off|lru|lru:<capacity>)"
               other))

let policy_to_string = function Off -> "off" | Lru _ -> "lru"

let pp_policy fmt = function
  | Off -> Format.pp_print_string fmt "off"
  | Lru { capacity } -> Format.fprintf fmt "lru(%d)" capacity

(* ------------------------------------------------------------------ *)
(* Per-node cache.                                                     *)

type entry = {
  versions : int array;  (* version vector of the predicted read set, page order *)
  reads : (int * int) list;  (* the recorded read log: (page, version), ascending *)
  mutable last_used : int;  (* LRU clock tick of the latest find/install *)
}

(* Keys pack (oid, method index) into one int, the method in the low
   [meth_bits]: the version vector lives in the entry and is compared on
   lookup, so a stale entry is dropped lazily the moment the object's pages
   have advanced past it. *)
let meth_bits = 16

module Key = struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end

let key oid meth =
  if meth < 0 || meth >= 1 lsl meth_bits then invalid_arg "Method_cache: method index out of range";
  (Oid.to_int oid lsl meth_bits) lor meth

module Tbl = Hashtbl.Make (Key)

type t = { policy : policy; entries : entry Tbl.t; mutable tick : int }

let create policy =
  let size = match policy with Off -> 1 | Lru { capacity } -> min capacity 1024 in
  { policy; entries = Tbl.create size; tick = 0 }

let enabled t = policy_enabled t.policy

let capacity t = match t.policy with Off -> 0 | Lru { capacity } -> capacity

let touch t e =
  t.tick <- t.tick + 1;
  e.last_used <- t.tick

let entry_count t = Tbl.length t.entries

let find t ~oid ~meth ~versions =
  if not (enabled t) then None
  else
    let key = key oid meth in
    match Tbl.find_opt t.entries key with
    | None -> None
    | Some e ->
        if
          Array.length e.versions = Array.length versions
          && Array.for_all2 Int.equal e.versions versions
        then begin
          touch t e;
          Some e.reads
        end
        else begin
          (* Version advance: the cached result was computed against pages
             that have since been superseded — drop it. *)
          Tbl.remove t.entries key;
          None
        end

(* Evict the least-recently-used entry. Capacity is small (hundreds), so a
   linear scan on the rare insert-at-capacity keeps the structure trivial;
   ticks are unique, so the victim — hence the whole run — is deterministic. *)
let evict_lru t =
  let victim =
    Tbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best.last_used <= e.last_used -> acc
        | _ -> Some (key, e))
      t.entries None
  in
  match victim with None -> () | Some (key, _) -> Tbl.remove t.entries key

let install t ~oid ~meth ~versions ~reads =
  if not (enabled t) then false
  else
    let key = key oid meth in
    match Tbl.find_opt t.entries key with
    | Some e
      when Array.length e.versions = Array.length versions
           && Array.for_all2 Int.equal e.versions versions ->
        (* Identical entry already cached (a race between two fills of the
           same execution): refresh recency, report no new fill. *)
        touch t e;
        false
    | Some _ ->
        (* Same key at different versions: replace in place. *)
        t.tick <- t.tick + 1;
        Tbl.replace t.entries key { versions = Array.copy versions; reads; last_used = t.tick };
        true
    | None ->
        if Tbl.length t.entries >= capacity t then evict_lru t;
        t.tick <- t.tick + 1;
        Tbl.add t.entries key { versions = Array.copy versions; reads; last_used = t.tick };
        true

let invalidate_object t oid =
  let o = Oid.to_int oid in
  let doomed =
    Tbl.fold (fun key _ acc -> if key lsr meth_bits = o then key :: acc else acc) t.entries []
  in
  List.iter (Tbl.remove t.entries) doomed;
  List.length doomed

let clear t =
  let n = Tbl.length t.entries in
  Tbl.reset t.entries;
  n
