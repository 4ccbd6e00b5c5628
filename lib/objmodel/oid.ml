type t = int

let of_int i =
  if i < 0 then invalid_arg "Oid.of_int: negative id";
  i

let to_int t = t
let equal = Int.equal
let compare = Int.compare
let pp fmt t = Format.fprintf fmt "O%d" t

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Vec = struct
  type 'a t = { default : 'a; mutable slots : 'a array }

  let create ~default = { default; slots = [||] }

  let get v (o : int) = if o < Array.length v.slots then Array.unsafe_get v.slots o else v.default

  let set v (o : int) x =
    let len = Array.length v.slots in
    if o >= len then begin
      let n = ref (max 8 len) in
      while !n <= o do
        n := 2 * !n
      done;
      let bigger = Array.make !n v.default in
      Array.blit v.slots 0 bigger 0 len;
      v.slots <- bigger
    end;
    Array.unsafe_set v.slots o x

  let iter f v = Array.iteri f v.slots

  let fold f v init =
    let acc = ref init in
    for o = Array.length v.slots - 1 downto 0 do
      acc := f o v.slots.(o) !acc
    done;
    !acc
end
