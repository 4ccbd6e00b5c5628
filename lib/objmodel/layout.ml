type t = {
  page_size : int;
  offsets : int array;  (* byte offset of each attribute *)
  attr_pages : int list array;  (* pages each attribute's extent touches *)
  total_bytes : int;
}

(* [first .. p] consed onto [acc]. *)
let rec page_span first p acc = if p < first then acc else page_span first (p - 1) (p :: acc)

let create ~page_size attrs =
  if page_size <= 0 then invalid_arg "Layout.create: page_size must be positive";
  let n = Array.length attrs in
  let offsets = Array.make n 0 in
  let attr_pages = Array.make n [] in
  let cursor = ref 0 in
  for i = 0 to n - 1 do
    let size = attrs.(i).Attribute.size_bytes in
    let first = !cursor / page_size and last = (!cursor + size - 1) / page_size in
    offsets.(i) <- !cursor;
    attr_pages.(i) <- page_span first last [];
    cursor := !cursor + size
  done;
  { page_size; offsets; attr_pages; total_bytes = !cursor }

let page_size t = t.page_size

let page_count t =
  if t.total_bytes = 0 then 1 else (t.total_bytes + t.page_size - 1) / t.page_size

let total_bytes t = t.total_bytes

let check_attr t a =
  if a < 0 || a >= Array.length t.offsets then invalid_arg "Layout: attribute id out of range"

let offset t a =
  check_attr t a;
  t.offsets.(a)

let pages_of_attr t a =
  check_attr t a;
  t.attr_pages.(a)

(* Mark the pages each attribute touches, then collect them ascending. *)
let pages_of_attrs t attrs =
  let n = page_count t in
  let marks = Bytes.make n '\000' in
  List.iter
    (fun a -> List.iter (fun p -> Bytes.unsafe_set marks p '\001') (pages_of_attr t a))
    attrs;
  let rec collect p acc =
    if p < 0 then acc
    else collect (p - 1) (if Bytes.unsafe_get marks p = '\001' then p :: acc else acc)
  in
  collect (n - 1) []

let attr_count t = Array.length t.offsets

let pp fmt t =
  Format.fprintf fmt "layout: %d attrs, %d bytes, %d pages of %dB" (attr_count t) t.total_bytes
    (page_count t) t.page_size
