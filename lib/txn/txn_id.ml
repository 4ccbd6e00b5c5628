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
