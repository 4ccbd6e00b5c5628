type compiled_method = {
  ir : Method_ir.t;
  summary : Access_analysis.summary;
  page_summary : Access_analysis.page_summary;
  cpu_statements : int;
  index : int;
}

type t = {
  name : string;
  attrs : Attribute.t array;
  ref_slots : int;
  analysed : (Method_ir.t * Access_analysis.summary) list;
      (* each method with the summary [define] checked it against *)
  compiled : compiled option;
}

(* [table] holds the methods in declaration order: a method index is a
   position in it. *)
and compiled = { layout : Layout.t; table : compiled_method array }

let define ~name ~attrs ~methods ~ref_slots =
  if ref_slots < 0 then invalid_arg "Obj_class.define: negative ref_slots";
  let seen = ref [] in
  let analysed =
    List.map
      (fun (m : Method_ir.t) ->
        (* A class has a handful of methods: a scan beats hashing. *)
        if List.exists (String.equal m.Method_ir.name) !seen then
          invalid_arg (Printf.sprintf "Obj_class.define: duplicate method %s" m.Method_ir.name);
        seen := m.Method_ir.name :: !seen;
        if Method_ir.max_slot m >= ref_slots then
          invalid_arg
            (Printf.sprintf "Obj_class.define: method %s uses slot beyond ref_slots"
               m.Method_ir.name);
        let check_attr a =
          if a < 0 || a >= Array.length attrs then
            invalid_arg
              (Printf.sprintf "Obj_class.define: method %s references attribute %d out of range"
                 m.Method_ir.name a)
        in
        let summary = Access_analysis.analyse m in
        List.iter check_attr summary.Access_analysis.read_attrs;
        if Method_ir.commutes m then begin
          (* Escrow-classed methods must be self-contained updates: the escrow
             protocol replaces their page locks with a delta reservation on one
             object, so a nested Invoke (a sub-transaction on another object)
             or a read-only body would escape that model. *)
          if summary.Access_analysis.invoked <> [] then
            invalid_arg
              (Printf.sprintf "Obj_class.define: commutative method %s contains Invoke"
                 m.Method_ir.name);
          if not summary.Access_analysis.updates then
            invalid_arg
              (Printf.sprintf "Obj_class.define: commutative method %s never writes"
                 m.Method_ir.name)
        end;
        (m, summary))
      methods
  in
  { name; attrs; ref_slots; analysed; compiled = None }

let compile ?layout ~page_size t =
  let layout =
    match layout with
    | None -> Layout.create ~page_size t.attrs
    | Some l ->
        if Layout.page_size l <> page_size || Layout.attr_count l <> Array.length t.attrs then
          invalid_arg (Printf.sprintf "Obj_class.compile: layout does not fit class %s" t.name);
        l
  in
  let table =
    Array.of_list
      (List.mapi
         (fun index (ir, summary) ->
           let page_summary = Access_analysis.pages layout summary in
           { ir; summary; page_summary; cpu_statements = Method_ir.statement_count ir; index })
         t.analysed)
  in
  { t with compiled = Some { layout; table } }

let name t = t.name
let attrs t = t.attrs
let ref_slots t = t.ref_slots

let compiled_exn t =
  match t.compiled with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Obj_class: class %s not compiled" t.name)

let layout t = (compiled_exn t).layout
let page_count t = Layout.page_count (layout t)

let find_method t i =
  let table = (compiled_exn t).table in
  if i < 0 || i >= Array.length table then raise Not_found else Array.unsafe_get table i

let method_count t = List.length t.analysed

let method_index t m_name =
  let rec scan i = function
    | [] -> raise Not_found
    | ((m : Method_ir.t), _) :: rest ->
        if String.equal m.Method_ir.name m_name then i else scan (i + 1) rest
  in
  scan 0 t.analysed

let methods t =
  Array.to_list (compiled_exn t).table
  |> List.sort (fun a b -> compare a.ir.Method_ir.name b.ir.Method_ir.name)

let method_names t = List.map (fun m -> m.ir.Method_ir.name) (methods t)

let pp fmt t =
  Format.fprintf fmt "class %s (%d attrs, %d slots, %d methods)" t.name (Array.length t.attrs)
    t.ref_slots (List.length t.analysed)
