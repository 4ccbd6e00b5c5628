(* Tests for the object model: oids, attributes, layout, IR, access
   analysis, classes and the catalog. *)

open Objmodel

let oid = Oid.of_int

(* ---------- Oid ---------- *)

let test_oid_basics () =
  Alcotest.(check int) "roundtrip" 5 (Oid.to_int (oid 5));
  Alcotest.(check bool) "equal" true (Oid.equal (oid 3) (oid 3));
  Alcotest.(check bool) "compare" true (Oid.compare (oid 1) (oid 2) < 0);
  Alcotest.(check string) "pp" "O7" (Format.asprintf "%a" Oid.pp (oid 7));
  Alcotest.check_raises "negative" (Invalid_argument "Oid.of_int: negative id") (fun () ->
      ignore (oid (-1)))

(* ---------- Attribute ---------- *)

let test_attribute () =
  let a = Attribute.make ~name:"x" ~size_bytes:8 in
  Alcotest.(check int) "size" 8 a.Attribute.size_bytes;
  Alcotest.check_raises "zero size" (Invalid_argument "Attribute.make: size must be positive")
    (fun () -> ignore (Attribute.make ~name:"x" ~size_bytes:0))

(* ---------- Layout ---------- *)

let attrs_of_sizes sizes =
  Array.of_list
    (List.mapi (fun i s -> Attribute.make ~name:(Printf.sprintf "a%d" i) ~size_bytes:s) sizes)

let test_layout_sequential_offsets () =
  let l = Layout.create ~page_size:100 (attrs_of_sizes [ 10; 20; 30 ]) in
  Alcotest.(check int) "offset 0" 0 (Layout.offset l 0);
  Alcotest.(check int) "offset 1" 10 (Layout.offset l 1);
  Alcotest.(check int) "offset 2" 30 (Layout.offset l 2);
  Alcotest.(check int) "total" 60 (Layout.total_bytes l);
  Alcotest.(check int) "one page" 1 (Layout.page_count l)

let test_layout_page_spans () =
  let l = Layout.create ~page_size:100 (attrs_of_sizes [ 90; 20; 100; 95 ]) in
  (* a0: [0,90) -> page 0; a1: [90,110) -> pages 0-1; a2: [110,210) -> 1-2;
     a3: [210,305) -> pages 2-3. *)
  Alcotest.(check (list int)) "a0" [ 0 ] (Layout.pages_of_attr l 0);
  Alcotest.(check (list int)) "a1 straddles" [ 0; 1 ] (Layout.pages_of_attr l 1);
  Alcotest.(check (list int)) "a2" [ 1; 2 ] (Layout.pages_of_attr l 2);
  Alcotest.(check (list int)) "a3" [ 2; 3 ] (Layout.pages_of_attr l 3);
  Alcotest.(check int) "page count" 4 (Layout.page_count l)

(* The precomputed page lists equal the extent formula: attribute [a] at
   byte offset [o] with size [s] touches pages [o / ps] .. [(o + s - 1) / ps].
   Sizes up to three pages make most layouts straddle page boundaries. *)
let qcheck_pages_of_attr_formula =
  let gen =
    QCheck.Gen.(pair (int_range 1 512) (list_size (int_range 1 20) (int_range 1 1536)))
  in
  QCheck.Test.make ~name:"pages_of_attr matches the extent formula" ~count:300
    (QCheck.make ~print:QCheck.Print.(pair int (list int)) gen)
    (fun (page_size, sizes) ->
      let l = Layout.create ~page_size (attrs_of_sizes sizes) in
      let rec check a offset = function
        | [] -> true
        | size :: rest ->
            let first = offset / page_size and last = (offset + size - 1) / page_size in
            Layout.pages_of_attr l a = List.init (last - first + 1) (fun k -> first + k)
            && check (a + 1) (offset + size) rest
      in
      check 0 0 sizes)

let test_layout_union () =
  let l = Layout.create ~page_size:100 (attrs_of_sizes [ 90; 20; 100; 95 ]) in
  Alcotest.(check (list int)) "union deduped" [ 0; 1; 2 ] (Layout.pages_of_attrs l [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "empty" [] (Layout.pages_of_attrs l [])

let test_layout_empty_object () =
  let l = Layout.create ~page_size:100 [||] in
  Alcotest.(check int) "empty object still 1 page" 1 (Layout.page_count l)

let test_layout_bad_page_size () =
  Alcotest.check_raises "zero page" (Invalid_argument "Layout.create: page_size must be positive")
    (fun () -> ignore (Layout.create ~page_size:0 [||]))

let test_layout_bad_attr () =
  let l = Layout.create ~page_size:100 (attrs_of_sizes [ 10 ]) in
  Alcotest.check_raises "out of range" (Invalid_argument "Layout: attribute id out of range")
    (fun () -> ignore (Layout.pages_of_attr l 3))

(* ---------- Method IR ---------- *)

let body_abc =
  [
    Method_ir.Read 0;
    Method_ir.If
      {
        prob_then = 0.5;
        then_ = [ Method_ir.Write 1 ];
        else_ = [ Method_ir.Read 2; Method_ir.Invoke { slot = 1; meth = 0 } ];
      };
    Method_ir.Loop { count = 3; body = [ Method_ir.Write 3 ] };
  ]

let test_ir_max_slot () =
  let m = Method_ir.make ~name:"m" ~body:body_abc in
  Alcotest.(check int) "max slot" 1 (Method_ir.max_slot m);
  let none = Method_ir.make ~name:"n" ~body:[ Method_ir.Read 0 ] in
  Alcotest.(check int) "no slots" (-1) (Method_ir.max_slot none)

let test_ir_statement_count () =
  let m = Method_ir.make ~name:"m" ~body:body_abc in
  (* read + if + write + read + invoke + loop + write = 7 *)
  Alcotest.(check int) "count" 7 (Method_ir.statement_count m)

let run_interp m ~choose =
  let log = ref [] in
  let handler =
    {
      Method_ir.on_read = (fun a -> log := Printf.sprintf "r%d" a :: !log);
      on_write = (fun a -> log := Printf.sprintf "w%d" a :: !log);
      on_invoke = (fun s meth -> log := Printf.sprintf "i%d.m%d" s meth :: !log);
      choose;
    }
  in
  Method_ir.interp m handler;
  List.rev !log

let test_interp_then_branch () =
  let m = Method_ir.make ~name:"m" ~body:body_abc in
  Alcotest.(check (list string))
    "then branch"
    [ "r0"; "w1"; "w3"; "w3"; "w3" ]
    (run_interp m ~choose:(fun _ -> true))

let test_interp_else_branch () =
  let m = Method_ir.make ~name:"m" ~body:body_abc in
  Alcotest.(check (list string))
    "else branch"
    [ "r0"; "r2"; "i1.m0"; "w3"; "w3"; "w3" ]
    (run_interp m ~choose:(fun _ -> false))

let test_interp_choose_sees_probability () =
  let m =
    Method_ir.make ~name:"m"
      ~body:[ Method_ir.If { prob_then = 0.25; then_ = []; else_ = [] } ]
  in
  let seen = ref [] in
  let handler =
    {
      Method_ir.on_read = ignore;
      on_write = ignore;
      on_invoke = (fun _ _ -> ());
      choose =
        (fun p ->
          seen := p :: !seen;
          true);
    }
  in
  Method_ir.interp m handler;
  Alcotest.(check (list (float 0.0001))) "probability passed" [ 0.25 ] !seen

(* ---------- Access analysis ---------- *)

let test_analysis_unions_branches () =
  let m = Method_ir.make ~name:"m" ~body:body_abc in
  let s = Access_analysis.analyse m in
  Alcotest.(check (list int)) "reads include writes" [ 0; 1; 2; 3 ] s.Access_analysis.read_attrs;
  Alcotest.(check (list int)) "writes" [ 1; 3 ] s.Access_analysis.write_attrs;
  Alcotest.(check bool) "updates" true s.Access_analysis.updates;
  Alcotest.(check (list (pair int int))) "invoked" [ (1, 0) ] s.Access_analysis.invoked

let test_analysis_read_only () =
  let m = Method_ir.make ~name:"m" ~body:[ Method_ir.Read 5; Method_ir.Read 5 ] in
  let s = Access_analysis.analyse m in
  Alcotest.(check bool) "not updating" false s.Access_analysis.updates;
  Alcotest.(check (list int)) "dedup" [ 5 ] s.Access_analysis.read_attrs

let test_analysis_pages () =
  let l = Layout.create ~page_size:100 (attrs_of_sizes [ 90; 20; 100; 95 ]) in
  let m = Method_ir.make ~name:"m" ~body:[ Method_ir.Read 0; Method_ir.Write 3 ] in
  let p = Access_analysis.pages l (Access_analysis.analyse m) in
  Alcotest.(check (list int)) "access pages" [ 0; 2; 3 ] p.Access_analysis.access_pages;
  Alcotest.(check (list int)) "write pages" [ 2; 3 ] p.Access_analysis.write_pages

(* Property: prediction is conservative — whatever branches execution takes,
   every executed access is inside the predicted set. *)
let gen_stmt_list =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          let leaf =
            oneof
              [
                map (fun a -> Method_ir.Read a) (int_bound 9);
                map (fun a -> Method_ir.Write a) (int_bound 9);
              ]
          in
          if n <= 1 then list_size (int_range 0 4) leaf
          else
            list_size (int_range 0 4)
              (frequency
                 [
                   (4, leaf);
                   ( 1,
                     map2
                       (fun t e -> Method_ir.If { prob_then = 0.5; then_ = t; else_ = e })
                       (self (n / 2)) (self (n / 2)) );
                   ( 1,
                     map
                       (fun b -> Method_ir.Loop { count = 2; body = b })
                       (self (n / 2)) );
                 ]))
        n)

let qcheck_prediction_conservative =
  let arb = QCheck.make ~print:(fun _ -> "<ir>") (QCheck.Gen.pair gen_stmt_list QCheck.Gen.int) in
  QCheck.Test.make ~name:"predicted superset of actual accesses" ~count:300 arb
    (fun (body, seed) ->
      let m = Method_ir.make ~name:"m" ~body in
      let s = Access_analysis.analyse m in
      let rng = Sim.Prng.create ~seed in
      let actual_reads = ref [] and actual_writes = ref [] in
      let handler =
        {
          Method_ir.on_read = (fun a -> actual_reads := a :: !actual_reads);
          on_write = (fun a -> actual_writes := a :: !actual_writes);
          on_invoke = (fun _ _ -> ());
          choose = (fun p -> Sim.Prng.bernoulli rng p);
        }
      in
      Method_ir.interp m handler;
      List.for_all (fun a -> List.mem a s.Access_analysis.read_attrs) !actual_reads
      && List.for_all (fun a -> List.mem a s.Access_analysis.write_attrs) !actual_writes)

(* The [Set.Make] analysis and page union the compiler used before they
   became sort-and-dedup and mark passes, kept as references: the summaries and
   page predictions feed every lock and transfer decision, so the new
   passes must return exactly these lists. *)
module Reference = struct
  module IS = Set.Make (Int)

  module SlotMeth = Set.Make (struct
    type t = int * int

    let compare = compare
  end)

  let rec walk ((reads, writes, invoked) as acc) = function
    | Method_ir.Read a -> (IS.add a reads, writes, invoked)
    | Method_ir.Write a -> (IS.add a reads, IS.add a writes, invoked)
    | Method_ir.Invoke { slot; meth } -> (reads, writes, SlotMeth.add (slot, meth) invoked)
    | Method_ir.If { then_; else_; _ } ->
        List.fold_left walk (List.fold_left walk acc then_) else_
    | Method_ir.Loop { body; _ } -> List.fold_left walk acc body

  let analyse (m : Method_ir.t) =
    let reads, writes, invoked =
      List.fold_left walk (IS.empty, IS.empty, SlotMeth.empty) m.Method_ir.body
    in
    {
      Access_analysis.read_attrs = IS.elements reads;
      write_attrs = IS.elements writes;
      invoked = SlotMeth.elements invoked;
      updates = not (IS.is_empty writes);
    }

  let pages_of_attrs layout attrs =
    IS.elements
      (List.fold_left
         (fun acc a ->
           List.fold_left (fun s p -> IS.add p s) acc (Layout.pages_of_attr layout a))
         IS.empty attrs)
end

(* Method bodies over 40 attributes with nested branches, loops and
   invocations of a handful of method indices. *)
let gen_ir_body =
  let open QCheck.Gen in
  let meth = oneofl [ 0; 1; 2; 10; 11 ] in
  sized (fun n ->
      fix
        (fun self n ->
          let leaf =
            frequency
              [
                (3, map (fun a -> Method_ir.Read a) (int_bound 39));
                (2, map (fun a -> Method_ir.Write a) (int_bound 39));
                ( 1,
                  map2 (fun slot meth -> Method_ir.Invoke { slot; meth }) (int_bound 3) meth );
              ]
          in
          if n <= 1 then list_size (int_range 0 6) leaf
          else
            list_size (int_range 0 6)
              (frequency
                 [
                   (4, leaf);
                   ( 1,
                     map2
                       (fun t e -> Method_ir.If { prob_then = 0.5; then_ = t; else_ = e })
                       (self (n / 2)) (self (n / 2)) );
                   (1, map (fun b -> Method_ir.Loop { count = 2; body = b }) (self (n / 2)));
                 ]))
        n)

let qcheck_analysis_matches_reference =
  let gen =
    QCheck.Gen.(triple gen_ir_body (int_range 1 512) (list_size (return 40) (int_range 1 700)))
  in
  QCheck.Test.make ~name:"analysis and page union match the Set.Make references" ~count:300
    (QCheck.make ~print:(fun (body, _, _) ->
         Format.asprintf "%a" Method_ir.pp (Method_ir.make ~name:"m" ~body))
       gen)
    (fun (body, page_size, sizes) ->
      let m = Method_ir.make ~name:"m" ~body in
      let s = Access_analysis.analyse m in
      let layout = Layout.create ~page_size (attrs_of_sizes sizes) in
      let p = Access_analysis.pages layout s in
      s = Reference.analyse m
      && p.Access_analysis.access_pages
         = Reference.pages_of_attrs layout s.Access_analysis.read_attrs
      && p.Access_analysis.write_pages
         = Reference.pages_of_attrs layout s.Access_analysis.write_attrs
      (* Unsorted, duplicated attribute lists too, as callers may pass. *)
      &&
      let mixed = List.rev_append s.Access_analysis.read_attrs s.Access_analysis.write_attrs in
      Layout.pages_of_attrs layout mixed = Reference.pages_of_attrs layout mixed)

(* Ill-formed ids far apart (or negative) still come back ascending and
   deduplicated, so [Obj_class.define] reports the smallest bad one. *)
let test_analysis_far_ids () =
  let m =
    Method_ir.make ~name:"m"
      ~body:Method_ir.[ Read 1_000_000; Read (-3); Write 5; Read 5; Read 1_000_000 ]
  in
  let s = Access_analysis.analyse m in
  Alcotest.(check (list int)) "reads" [ -3; 5; 1_000_000 ] s.Access_analysis.read_attrs;
  Alcotest.(check (list int)) "writes" [ 5 ] s.Access_analysis.write_attrs;
  Alcotest.check_raises "define names the smallest"
    (Invalid_argument "Obj_class.define: method m references attribute -3 out of range")
    (fun () ->
      ignore
        (Obj_class.define ~name:"K" ~attrs:(attrs_of_sizes [ 10 ]) ~methods:[ m ] ~ref_slots:0))

(* ---------- Obj_class ---------- *)

let simple_class () =
  Obj_class.define ~name:"K"
    ~attrs:(attrs_of_sizes [ 90; 20; 100 ])
    ~methods:
      [
        Method_ir.make ~name:"get" ~body:[ Method_ir.Read 0 ];
        Method_ir.make ~name:"set" ~body:[ Method_ir.Write 1 ];
      ]
    ~ref_slots:0

let test_class_compile () =
  let k = Obj_class.compile ~page_size:100 (simple_class ()) in
  Alcotest.(check int) "pages" 3 (Obj_class.page_count k);
  let get = Obj_class.find_method k (Obj_class.method_index k "get") in
  Alcotest.(check bool) "get read-only" false get.Obj_class.summary.Access_analysis.updates;
  let set = Obj_class.find_method k (Obj_class.method_index k "set") in
  Alcotest.(check bool) "set updates" true set.Obj_class.summary.Access_analysis.updates;
  Alcotest.(check (list string)) "method names" [ "get"; "set" ] (Obj_class.method_names k)

let test_class_uncompiled () =
  let k = simple_class () in
  Alcotest.check_raises "layout before compile"
    (Invalid_argument "Obj_class: class K not compiled") (fun () -> ignore (Obj_class.layout k))

let test_class_duplicate_method () =
  Alcotest.check_raises "dup" (Invalid_argument "Obj_class.define: duplicate method m")
    (fun () ->
      ignore
        (Obj_class.define ~name:"K" ~attrs:[||]
           ~methods:
             [ Method_ir.make ~name:"m" ~body:[]; Method_ir.make ~name:"m" ~body:[] ]
           ~ref_slots:0))

let test_class_slot_validation () =
  Alcotest.check_raises "slot out of range"
    (Invalid_argument "Obj_class.define: method m uses slot beyond ref_slots") (fun () ->
      ignore
        (Obj_class.define ~name:"K" ~attrs:[||]
           ~methods:[ Method_ir.make ~name:"m" ~body:[ Method_ir.Invoke { slot = 2; meth = 0 } ] ]
           ~ref_slots:2))

let test_class_missing_method () =
  let k = Obj_class.compile ~page_size:100 (simple_class ()) in
  Alcotest.check_raises "not found" Not_found (fun () -> ignore (Obj_class.method_index k "nope"));
  Alcotest.check_raises "index past the end" Not_found (fun () ->
      ignore (Obj_class.find_method k 2));
  Alcotest.check_raises "negative index" Not_found (fun () -> ignore (Obj_class.find_method k (-1)))

(* A method's index is its declaration position; [methods] still lists
   them by name, and a name that is only a prefix of a method is unknown. *)
let test_class_find_method_scan () =
  let names = [ "zeta"; "alpha"; "mid"; "alphabet" ] in
  let k =
    Obj_class.compile ~page_size:100
      (Obj_class.define ~name:"Many"
         ~attrs:(attrs_of_sizes [ 10 ])
         ~methods:(List.map (fun name -> Method_ir.make ~name ~body:[ Method_ir.Read 0 ]) names)
         ~ref_slots:0)
  in
  List.iteri
    (fun i name ->
      Alcotest.(check int) ("index of " ^ name) i (Obj_class.method_index k name);
      Alcotest.(check string) ("finds " ^ name) name
        (Obj_class.find_method k i).Obj_class.ir.Method_ir.name)
    names;
  Alcotest.(check int) "count" 4 (Obj_class.method_count k);
  Alcotest.(check (list string)) "sorted names" [ "alpha"; "alphabet"; "mid"; "zeta" ]
    (Obj_class.method_names k);
  Alcotest.check_raises "prefix unknown" Not_found (fun () ->
      ignore (Obj_class.method_index k "alph"));
  Alcotest.check_raises "empty unknown" Not_found (fun () -> ignore (Obj_class.method_index k ""))

(* ---------- Catalog ---------- *)

let compiled_leaf name =
  Obj_class.compile ~page_size:100
    (Obj_class.define ~name
       ~attrs:(attrs_of_sizes [ 50 ])
       ~methods:[ Method_ir.make ~name:"m0" ~body:[ Method_ir.Write 0 ] ]
       ~ref_slots:0)

let compiled_parent name =
  Obj_class.compile ~page_size:100
    (Obj_class.define ~name
       ~attrs:(attrs_of_sizes [ 50 ])
       ~methods:
         [
           Method_ir.make ~name:"m0"
             ~body:[ Method_ir.Read 0; Method_ir.Invoke { slot = 0; meth = 0 } ];
         ]
       ~ref_slots:1)

let test_catalog_basic () =
  let cat =
    Catalog.create
      [
        { Catalog.oid = oid 0; cls = compiled_parent "P"; refs = [| oid 1 |] };
        { Catalog.oid = oid 1; cls = compiled_leaf "L"; refs = [||] };
      ]
  in
  Alcotest.(check int) "size" 2 (Catalog.size cat);
  Alcotest.(check (list int)) "oids" [ 0; 1 ] (List.map Oid.to_int (Catalog.oids cat));
  Alcotest.(check int) "resolve slot" 1 (Oid.to_int (Catalog.resolve_slot cat (oid 0) 0));
  Alcotest.(check int) "page count" 1 (Catalog.page_count cat (oid 0));
  Alcotest.(check bool) "acyclic" true (Catalog.validate_acyclic cat = Ok ());
  Alcotest.(check int) "depth" 2 (Catalog.max_invocation_depth cat);
  Alcotest.(check int) "total pages" 2 (Catalog.total_pages cat)

let test_catalog_cycle_detection () =
  let cat =
    Catalog.create
      [
        { Catalog.oid = oid 0; cls = compiled_parent "P"; refs = [| oid 1 |] };
        { Catalog.oid = oid 1; cls = compiled_parent "P2"; refs = [| oid 0 |] };
      ]
  in
  (match Catalog.validate_acyclic cat with
  | Ok () -> Alcotest.fail "expected a cycle"
  | Error cycle -> Alcotest.(check bool) "cycle nonempty" true (List.length cycle >= 2));
  Alcotest.check_raises "depth on cyclic"
    (Invalid_argument "Catalog.max_invocation_depth: catalog is cyclic") (fun () ->
      ignore (Catalog.max_invocation_depth cat))

let test_catalog_self_loop () =
  let cat =
    Catalog.create [ { Catalog.oid = oid 0; cls = compiled_parent "P"; refs = [| oid 0 |] } ]
  in
  match Catalog.validate_acyclic cat with
  | Ok () -> Alcotest.fail "self-loop must be cyclic"
  | Error cycle -> Alcotest.(check int) "self cycle" 1 (List.length cycle)

let test_catalog_validation () =
  Alcotest.check_raises "unknown ref"
    (Invalid_argument "Catalog.create: O0 references unknown O9") (fun () ->
      ignore
        (Catalog.create
           [ { Catalog.oid = oid 0; cls = compiled_parent "P"; refs = [| oid 9 |] } ]));
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Catalog.create: O0 has 0 refs, class P declares 1 slots") (fun () ->
      ignore (Catalog.create [ { Catalog.oid = oid 0; cls = compiled_parent "P"; refs = [||] } ]));
  let dup = { Catalog.oid = oid 0; cls = compiled_leaf "L"; refs = [||] } in
  Alcotest.check_raises "duplicate oid" (Invalid_argument "Catalog.create: duplicate O0")
    (fun () -> ignore (Catalog.create [ dup; dup ]))

(* An [Invoke] names its target's method by index, checked against the
   class each instance binds the slot to. *)
let test_catalog_invoke_index () =
  let caller =
    Obj_class.compile ~page_size:100
      (Obj_class.define ~name:"C"
         ~attrs:(attrs_of_sizes [ 50 ])
         ~methods:[ Method_ir.make ~name:"go" ~body:[ Method_ir.Invoke { slot = 0; meth = 1 } ] ]
         ~ref_slots:1)
  in
  Alcotest.check_raises "index past the target's methods"
    (Invalid_argument "Catalog.create: O0 method go invokes method 1 of O1 (L)") (fun () ->
      ignore
        (Catalog.create
           [
             { Catalog.oid = oid 0; cls = caller; refs = [| oid 1 |] };
             { Catalog.oid = oid 1; cls = compiled_leaf "L"; refs = [||] };
           ]));
  let two =
    Obj_class.compile ~page_size:100
      (Obj_class.define ~name:"Two"
         ~attrs:(attrs_of_sizes [ 50 ])
         ~methods:
           [
             Method_ir.make ~name:"a" ~body:[ Method_ir.Read 0 ];
             Method_ir.make ~name:"b" ~body:[ Method_ir.Write 0 ];
           ]
         ~ref_slots:0)
  in
  let cat =
    Catalog.create
      [
        { Catalog.oid = oid 0; cls = caller; refs = [| oid 1 |] };
        { Catalog.oid = oid 1; cls = two; refs = [||] };
      ]
  in
  Alcotest.(check string) "method 1 of the target" "b"
    (Catalog.find_method cat (oid 1) 1).Obj_class.ir.Method_ir.name;
  Alcotest.(check int) "index by name" 1 (Catalog.method_index cat (oid 1) "b")

(* A shared layout must be the class's own: same page size, same
   attribute count. *)
let test_class_shared_layout () =
  let cls = simple_class () in
  let layout = Layout.create ~page_size:100 (Obj_class.attrs cls) in
  let a = Obj_class.compile ~layout ~page_size:100 cls in
  let b = Obj_class.compile ~layout ~page_size:100 cls in
  Alcotest.(check bool) "shared" true (Obj_class.layout a == Obj_class.layout b);
  Alcotest.check_raises "page size differs"
    (Invalid_argument "Obj_class.compile: layout does not fit class K") (fun () ->
      ignore (Obj_class.compile ~layout ~page_size:200 cls))

(* Ids need not be dense: the instance array keeps empty slots, which
   [find], [size], [oids] and [total_pages] skip. *)
let test_catalog_sparse_ids () =
  let cat =
    Catalog.create
      [
        { Catalog.oid = oid 5; cls = compiled_leaf "L5"; refs = [||] };
        { Catalog.oid = oid 2; cls = compiled_parent "P"; refs = [| oid 5 |] };
      ]
  in
  Alcotest.(check int) "size counts instances" 2 (Catalog.size cat);
  Alcotest.(check (list int))
    "oids ascending" [ 2; 5 ]
    (List.map Oid.to_int (Catalog.oids cat));
  Alcotest.(check string) "find" "L5" (Obj_class.name (Catalog.find cat (oid 5)).Catalog.cls);
  Alcotest.check_raises "empty slot" Not_found (fun () -> ignore (Catalog.find cat (oid 3)));
  Alcotest.check_raises "past the end" Not_found (fun () -> ignore (Catalog.find cat (oid 6)));
  Alcotest.(check int) "total pages" 2 (Catalog.total_pages cat);
  Alcotest.(check int) "depth" 2 (Catalog.max_invocation_depth cat);
  Alcotest.check_raises "reference into an empty slot"
    (Invalid_argument "Catalog.create: O2 references unknown O4") (fun () ->
      ignore
        (Catalog.create
           [
             { Catalog.oid = oid 5; cls = compiled_leaf "L5"; refs = [||] };
             { Catalog.oid = oid 2; cls = compiled_parent "P"; refs = [| oid 4 |] };
           ]))

let test_catalog_find_missing () =
  let cat = Catalog.create [ { Catalog.oid = oid 0; cls = compiled_leaf "L"; refs = [||] } ] in
  Alcotest.check_raises "missing" Not_found (fun () -> ignore (Catalog.find cat (oid 5)))

let tests =
  [
    ( "objmodel",
      [
        Alcotest.test_case "oid basics" `Quick test_oid_basics;
        Alcotest.test_case "attribute" `Quick test_attribute;
        Alcotest.test_case "layout offsets" `Quick test_layout_sequential_offsets;
        Alcotest.test_case "layout page spans" `Quick test_layout_page_spans;
        Alcotest.test_case "layout union" `Quick test_layout_union;
        QCheck_alcotest.to_alcotest qcheck_pages_of_attr_formula;
        Alcotest.test_case "layout empty object" `Quick test_layout_empty_object;
        Alcotest.test_case "layout bad page size" `Quick test_layout_bad_page_size;
        Alcotest.test_case "layout bad attr" `Quick test_layout_bad_attr;
        Alcotest.test_case "ir max_slot" `Quick test_ir_max_slot;
        Alcotest.test_case "ir statement count" `Quick test_ir_statement_count;
        Alcotest.test_case "interp then" `Quick test_interp_then_branch;
        Alcotest.test_case "interp else" `Quick test_interp_else_branch;
        Alcotest.test_case "interp choose prob" `Quick test_interp_choose_sees_probability;
        Alcotest.test_case "analysis unions" `Quick test_analysis_unions_branches;
        Alcotest.test_case "analysis read-only" `Quick test_analysis_read_only;
        Alcotest.test_case "analysis pages" `Quick test_analysis_pages;
        QCheck_alcotest.to_alcotest qcheck_prediction_conservative;
        QCheck_alcotest.to_alcotest qcheck_analysis_matches_reference;
        Alcotest.test_case "analysis far ids" `Quick test_analysis_far_ids;
        Alcotest.test_case "class compile" `Quick test_class_compile;
        Alcotest.test_case "class uncompiled" `Quick test_class_uncompiled;
        Alcotest.test_case "class duplicate method" `Quick test_class_duplicate_method;
        Alcotest.test_case "class slot validation" `Quick test_class_slot_validation;
        Alcotest.test_case "class missing method" `Quick test_class_missing_method;
        Alcotest.test_case "class find_method scan" `Quick test_class_find_method_scan;
        Alcotest.test_case "catalog basic" `Quick test_catalog_basic;
        Alcotest.test_case "catalog cycle" `Quick test_catalog_cycle_detection;
        Alcotest.test_case "catalog self loop" `Quick test_catalog_self_loop;
        Alcotest.test_case "catalog validation" `Quick test_catalog_validation;
        Alcotest.test_case "catalog invoke index" `Quick test_catalog_invoke_index;
        Alcotest.test_case "class shared layout" `Quick test_class_shared_layout;
        Alcotest.test_case "catalog find missing" `Quick test_catalog_find_missing;
        Alcotest.test_case "catalog sparse ids" `Quick test_catalog_sparse_ids;
      ] );
  ]
