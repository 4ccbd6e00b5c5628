type t = int

let of_int i =
  if i < 0 then invalid_arg "Txn_id.of_int: negative id";
  i

let to_int t = t
let equal = Int.equal
let compare = Int.compare
(* Ids are dense and non-negative: the identity spreads them over the
   buckets, at a fraction of [Hashtbl.hash]'s cost. *)
let hash t = t land max_int
let pp fmt t = Format.fprintf fmt "T%d" t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module Slab = struct
  type 'a t = { mutable keys : int array; mutable vals : 'a array; dummy : 'a }

  let create ~dummy = { keys = Array.make 16 (-1); vals = Array.make 16 dummy; dummy }
  let capacity s = Array.length s.keys
  let slot s id = id land (Array.length s.keys - 1)

  let get s id =
    let i = slot s id in
    if Array.unsafe_get s.keys i = id then Array.unsafe_get s.vals i else raise Not_found

  (* Live ids are distinct modulo the old capacity, so they stay distinct
     modulo the doubled one: one pass re-places them all. *)
  let grow s =
    let n = 2 * Array.length s.keys in
    let keys = Array.make n (-1) and vals = Array.make n s.dummy in
    Array.iteri
      (fun i k ->
        if k >= 0 then begin
          keys.(k land (n - 1)) <- k;
          vals.(k land (n - 1)) <- s.vals.(i)
        end)
      s.keys;
    s.keys <- keys;
    s.vals <- vals

  let rec replace s id v =
    let i = slot s id in
    let k = s.keys.(i) in
    if k = id then s.vals.(i) <- v
    else if k < 0 then begin
      s.keys.(i) <- id;
      s.vals.(i) <- v
    end
    else begin
      grow s;
      replace s id v
    end

  let remove s id =
    let i = slot s id in
    if s.keys.(i) = id then begin
      s.keys.(i) <- -1;
      s.vals.(i) <- s.dummy
    end

  let iter f s = Array.iteri (fun i k -> if k >= 0 then f k s.vals.(i)) s.keys
end
