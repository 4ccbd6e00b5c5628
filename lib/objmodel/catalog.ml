type instance = { oid : Oid.t; cls : Obj_class.t; refs : Oid.t array }

(* Instances indexed by [Oid.to_int], sized to the largest id; a sparse
   catalog leaves empty slots. *)
type t = { slots : instance option array; size : int }

let create instances =
  let top = List.fold_left (fun acc inst -> max acc (Oid.to_int inst.oid)) (-1) instances in
  let slots = Array.make (top + 1) None in
  let mem oid =
    let i = Oid.to_int oid in
    i < Array.length slots && Option.is_some slots.(i)
  in
  List.iter
    (fun inst ->
      if mem inst.oid then
        invalid_arg (Format.asprintf "Catalog.create: duplicate %a" Oid.pp inst.oid);
      (* Force layout computation so uncompiled classes fail here. *)
      ignore (Obj_class.layout inst.cls);
      if Array.length inst.refs <> Obj_class.ref_slots inst.cls then
        invalid_arg
          (Format.asprintf "Catalog.create: %a has %d refs, class %s declares %d slots" Oid.pp
             inst.oid (Array.length inst.refs)
             (Obj_class.name inst.cls)
             (Obj_class.ref_slots inst.cls));
      slots.(Oid.to_int inst.oid) <- Some inst)
    instances;
  List.iter
    (fun inst ->
      Array.iter
        (fun target ->
          if not (mem target) then
            invalid_arg
              (Format.asprintf "Catalog.create: %a references unknown %a" Oid.pp inst.oid Oid.pp
                 target))
        inst.refs;
      for m = 0 to Obj_class.method_count inst.cls - 1 do
        let cm = Obj_class.find_method inst.cls m in
        List.iter
          (fun (slot, i) ->
            match slots.(Oid.to_int inst.refs.(slot)) with
            | Some target when i < 0 || i >= Obj_class.method_count target.cls ->
                invalid_arg
                  (Format.asprintf "Catalog.create: %a method %s invokes method %d of %a (%s)"
                     Oid.pp inst.oid cm.Obj_class.ir.Method_ir.name i Oid.pp target.oid
                     (Obj_class.name target.cls))
            | Some _ | None -> ())
          cm.Obj_class.summary.Access_analysis.invoked
      done)
    instances;
  { slots; size = List.length instances }

let find t oid =
  let i = Oid.to_int oid in
  if i >= Array.length t.slots then raise Not_found
  else match Array.unsafe_get t.slots i with Some inst -> inst | None -> raise Not_found

let size t = t.size

let fold f t init =
  let acc = ref init in
  for i = Array.length t.slots - 1 downto 0 do
    match t.slots.(i) with Some inst -> acc := f inst !acc | None -> ()
  done;
  !acc

let oids t = fold (fun inst acc -> inst.oid :: acc) t []

let page_count t oid = Obj_class.page_count (find t oid).cls
let layout t oid = Obj_class.layout (find t oid).cls
let find_method t oid i = Obj_class.find_method (find t oid).cls i
let method_index t oid name = Obj_class.method_index (find t oid).cls name

let resolve_slot t oid slot =
  let inst = find t oid in
  if slot < 0 || slot >= Array.length inst.refs then
    invalid_arg (Format.asprintf "Catalog.resolve_slot: %a slot %d out of range" Oid.pp oid slot);
  inst.refs.(slot)

(* Three-colour DFS over the reference graph, colours indexed by id. *)
let validate_acyclic t =
  let colour = Bytes.make (Array.length t.slots) '\000' in
  (* 0 unvisited, 1 in progress, 2 done *)
  let cycle = ref None in
  let rec visit path oid =
    match !cycle with
    | Some _ -> ()
    | None -> (
        match Bytes.get colour (Oid.to_int oid) with
        | '\002' -> ()
        | '\001' ->
            (* Found a back edge: extract the cycle from the path. *)
            let rec take acc = function
              | [] -> acc
              | o :: rest -> if Oid.equal o oid then o :: acc else take (o :: acc) rest
            in
            cycle := Some (take [] path)
        | _ ->
            Bytes.set colour (Oid.to_int oid) '\001';
            let inst = find t oid in
            Array.iter (fun target -> visit (oid :: path) target) inst.refs;
            Bytes.set colour (Oid.to_int oid) '\002')
  in
  List.iter (fun oid -> visit [] oid) (oids t);
  match !cycle with None -> Ok () | Some c -> Error c

let max_invocation_depth t =
  (match validate_acyclic t with
  | Ok () -> ()
  | Error _ -> invalid_arg "Catalog.max_invocation_depth: catalog is cyclic");
  let memo = Array.make (Array.length t.slots) 0 in
  (* 0 = not yet computed; a depth is at least 1 *)
  let rec depth oid =
    let i = Oid.to_int oid in
    if memo.(i) > 0 then memo.(i)
    else begin
      let inst = find t oid in
      let d = Array.fold_left (fun acc target -> max acc (1 + depth target)) 1 inst.refs in
      memo.(i) <- d;
      d
    end
  in
  List.fold_left (fun acc oid -> max acc (depth oid)) 0 (oids t)

let total_pages t = fold (fun inst acc -> acc + Obj_class.page_count inst.cls) t 0
