type summary = {
  read_attrs : Attribute.id list;
  write_attrs : Attribute.id list;
  invoked : (Method_ir.slot * int) list;
  updates : bool;
}

(* One pass collects every access, duplicates included; each list is then
   sorted and deduplicated. *)
type acc = {
  mutable reads : Attribute.id list;
  mutable writes : Attribute.id list;
  mutable invoked : (Method_ir.slot * int) list;
}

let rec analyse_block acc body = List.iter (analyse_stmt acc) body

and analyse_stmt acc = function
  | Method_ir.Read a -> acc.reads <- a :: acc.reads
  | Method_ir.Write a ->
      acc.reads <- a :: acc.reads;
      acc.writes <- a :: acc.writes
  | Method_ir.Invoke { slot; meth } -> acc.invoked <- (slot, meth) :: acc.invoked
  | Method_ir.If { then_; else_; _ } ->
      (* Either side may execute: union both. *)
      analyse_block acc then_;
      analyse_block acc else_
  | Method_ir.Loop { body; _ } ->
      (* Accesses are idempotent for set purposes: one pass suffices. *)
      analyse_block acc body

let compare_call (s1, m1) (s2, m2) =
  let c = Int.compare s1 s2 in
  if c <> 0 then c else Int.compare m1 m2

let analyse (m : Method_ir.t) =
  let acc = { reads = []; writes = []; invoked = [] } in
  analyse_block acc m.body;
  {
    read_attrs = List.sort_uniq Int.compare acc.reads;
    write_attrs = List.sort_uniq Int.compare acc.writes;
    invoked = List.sort_uniq compare_call acc.invoked;
    updates = (match acc.writes with [] -> false | _ :: _ -> true);
  }

type page_summary = { access_pages : int list; write_pages : int list }

let pages layout s =
  {
    access_pages = Layout.pages_of_attrs layout s.read_attrs;
    write_pages = Layout.pages_of_attrs layout s.write_attrs;
  }

let pp_summary fmt s =
  let pp_ints fmt l =
    Format.fprintf fmt "[%s]" (String.concat ";" (List.map string_of_int l))
  in
  Format.fprintf fmt "reads=%a writes=%a updates=%b" pp_ints s.read_attrs pp_ints s.write_attrs
    s.updates
