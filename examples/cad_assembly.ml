(* Computer-aided design: the domain this work was originally developed for
   (paper §5.1, footnote 5): large structured objects whose small elements
   aggregate into coarse-grained lockable assemblies.

   An Assembly object is large (tens of pages: geometry, constraints,
   metadata); design operations touch only slices of it:
   - [move_part] rewrites a geometry slice,
   - [reroute] rewrites the constraint section,
   - [render] reads geometry only,
   - [annotate] writes the small metadata page.

   Because each method's predicted pages are a narrow slice of a big object,
   LOTEC's transfer savings over OTEC/COTEC are at their most dramatic here —
   this is the "large objects" end of the paper's Figures 3/5.

   Run with: dune exec examples/cad_assembly.exe *)

open Objmodel

(* Layout: 8 geometry chunks of ~2 pages each, a constraint section,
   one metadata page. *)
let assembly_class =
  let geometry_chunks = 8 in
  let attrs =
    Array.concat
      [
        Array.init geometry_chunks (fun i ->
            Attribute.make ~name:(Printf.sprintf "geom%d" i) ~size_bytes:8192);
        [|
          Attribute.make ~name:"constraints" ~size_bytes:12288;
          Attribute.make ~name:"metadata" ~size_bytes:1024;
        |];
      ]
  in
  let geom i = i in
  let constraints = geometry_chunks in
  let metadata = geometry_chunks + 1 in
  Obj_class.compile ~page_size:4096
    (Obj_class.define ~name:"Assembly" ~attrs
       ~methods:
         [
           Method_ir.make ~name:"move_part"
             ~body:
               [
                 Method_ir.Read (geom 2);
                 Method_ir.Write (geom 2);
                 (* Occasionally the move ripples into a neighbour chunk; the
                    compiler must predict it conservatively either way. *)
                 Method_ir.If
                   {
                     prob_then = 0.3;
                     then_ = [ Method_ir.Read (geom 3); Method_ir.Write (geom 3) ];
                     else_ = [];
                   };
                 Method_ir.Write metadata;
               ];
           Method_ir.make ~name:"reroute"
             ~body:[ Method_ir.Read constraints; Method_ir.Write constraints; Method_ir.Write metadata ];
           Method_ir.make ~name:"render"
             ~body:(List.init geometry_chunks (fun i -> Method_ir.Read (geom i)));
           Method_ir.make ~name:"annotate" ~body:[ Method_ir.Read metadata; Method_ir.Write metadata ];
         ]
       ~ref_slots:0)

let () =
  Format.printf "Assembly object: %d pages@." (Obj_class.page_count assembly_class);
  List.iter
    (fun name ->
      let m = Obj_class.find_method assembly_class (Obj_class.method_index assembly_class name) in
      Format.printf "  %-10s predicted pages: %s@." name
        (String.concat ","
           (List.map string_of_int m.Obj_class.page_summary.Access_analysis.access_pages)))
    [ "move_part"; "reroute"; "render"; "annotate" ];

  let catalog =
    Catalog.create
      (List.init 4 (fun i ->
           { Catalog.oid = Oid.of_int i; cls = assembly_class; refs = [||] }))
  in
  let submit rt =
    let rng = Sim.Prng.create ~seed:77 in
    let clock = ref 0.0 in
    for i = 0 to 79 do
      clock := !clock +. Sim.Prng.exponential rng ~mean:250.0;
      let meth =
        Sim.Prng.pick rng [| "move_part"; "move_part"; "reroute"; "render"; "annotate" |]
      in
      Core.Runtime.submit rt ~at:!clock ~node:(i mod 6) ~oid:(Oid.of_int (Sim.Prng.int rng 4))
        ~meth:(Obj_class.method_index assembly_class meth) ~seed:(500 + i)
    done
  in
  Format.printf "@.%-8s %12s %10s %14s@." "protocol" "data bytes" "msgs" "demand fetches";
  List.iter
    (fun protocol ->
      let config = { Core.Config.default with Core.Config.node_count = 6; protocol } in
      let rt = Core.Runtime.create ~config ~catalog in
      submit rt;
      Core.Runtime.run rt;
      let m = Core.Runtime.metrics rt in
      let t = Dsm.Metrics.totals m in
      Format.printf "%-8s %12d %10d %14d@."
        (Format.asprintf "%a" Dsm.Protocol.pp protocol)
        (Dsm.Metrics.total_data_bytes m) (Dsm.Metrics.total_messages m)
        t.Dsm.Metrics.demand_fetches)
    [ Dsm.Protocol.Cotec; Dsm.Protocol.Otec; Dsm.Protocol.Lotec ];
  Format.printf
    "@.LOTEC moves only the slice each CAD operation is predicted to touch;@.\
     COTEC re-ships whole multi-page assemblies on every acquisition.@."
