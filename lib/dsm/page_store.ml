open Objmodel

(* [pages.(o)] holds object [o]'s page versions, indexed by page, [absent]
   where nothing is cached; both levels grow on demand. *)
type t = { node : int; mutable pages : int array array }

let absent = -1

let create ~node = { node; pages = [||] }

let node t = t.node

(* Smallest power-of-two multiple of [len] (at least 8) exceeding [i]. *)
let grown_length len i =
  let n = ref (max 8 len) in
  while !n <= i do
    n := 2 * !n
  done;
  !n

let versions_of t oid =
  let o = Oid.to_int oid in
  if o < Array.length t.pages then t.pages.(o) else [||]

(* The object's version array, grown to cover [page]. *)
let slot_array t oid ~page =
  let o = Oid.to_int oid in
  if o >= Array.length t.pages then begin
    let bigger = Array.make (grown_length (Array.length t.pages) o) [||] in
    Array.blit t.pages 0 bigger 0 (Array.length t.pages);
    t.pages <- bigger
  end;
  let a = t.pages.(o) in
  if page < Array.length a then a
  else begin
    let bigger = Array.make (grown_length (Array.length a) page) absent in
    Array.blit a 0 bigger 0 (Array.length a);
    t.pages.(o) <- bigger;
    bigger
  end

let version t oid ~page =
  let a = versions_of t oid in
  if page < Array.length a then a.(page) else absent

let receive t oid ~page ~version:v =
  if v > version t oid ~page then (slot_array t oid ~page).(page) <- v

let write t oid ~page ~new_version =
  let a = slot_array t oid ~page in
  let prev = a.(page) in
  a.(page) <- new_version;
  prev

let restore t oid ~page ~version:v =
  if v <> absent then (slot_array t oid ~page).(page) <- v
  else
    let a = versions_of t oid in
    if page < Array.length a then a.(page) <- absent

let is_current t oid ~page ~newest = version t oid ~page >= newest

let cached_pages t oid =
  let a = versions_of t oid in
  let acc = ref [] in
  for p = Array.length a - 1 downto 0 do
    if a.(p) <> absent then acc := (p, a.(p)) :: !acc
  done;
  !acc

let cached_objects t =
  let acc = ref [] in
  for o = Array.length t.pages - 1 downto 0 do
    if Array.exists (fun v -> v <> absent) t.pages.(o) then acc := Oid.of_int o :: !acc
  done;
  !acc

let dump t =
  (* Ascending oid, ascending page: the dump is diffed across runs (and
     hash seeds) by determinism checks. *)
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "page store (node %d):\n" t.node);
  List.iter
    (fun oid ->
      Buffer.add_string b (Format.asprintf "  %a:" Oid.pp oid);
      List.iter
        (fun (p, v) -> Buffer.add_string b (Printf.sprintf " %d@v%d" p v))
        (cached_pages t oid);
      Buffer.add_char b '\n')
    (cached_objects t);
  Buffer.contents b
