(* Mutually recursive inter-object invocations (paper §3.4).

   The paper precludes them and sketches two enforcement alternatives:
   static preclusion ("verify compliance") versus admitting the programs and
   checking at run time, with per-invocation overhead proportional to
   nesting depth. Both are implemented; this example shows them side by
   side on a deliberately cyclic pair of classes:

     Ping.bounce -> (ref) Pong.bounce -> (ref) Ping.bounce -> ...

   Under the static policy the catalog is rejected outright. Under the
   run-time policy the catalog loads, non-recursive executions commit
   normally, and an execution that actually revisits an object is aborted
   permanently (no retries: the failure is deterministic), with all its
   provisional writes undone.

   Run with: dune exec examples/recursion_policy.exe *)

open Objmodel

let ping_pong_catalog () =
  let cls name =
    Obj_class.compile ~page_size:4096
      (Obj_class.define ~name
         ~attrs:[| Attribute.make ~name:"state" ~size_bytes:128 |]
         ~methods:
           [
             Method_ir.make ~name:"bounce"
               ~body:[ Method_ir.Write 0; Method_ir.Invoke { slot = 0; meth = 0 (* bounce *) } ];
             Method_ir.make ~name:"poke" ~body:[ Method_ir.Write 0 ];
             Method_ir.make ~name:"relay"
               ~body:[ Method_ir.Read 0; Method_ir.Invoke { slot = 0; meth = 1 (* poke *) } ];
           ]
         ~ref_slots:1)
  in
  Catalog.create
    [
      { Catalog.oid = Oid.of_int 0; cls = cls "Ping"; refs = [| Oid.of_int 1 |] };
      { Catalog.oid = Oid.of_int 1; cls = cls "Pong"; refs = [| Oid.of_int 0 |] };
    ]

let () =
  let catalog = ping_pong_catalog () in
  (match Catalog.validate_acyclic catalog with
  | Ok () -> assert false
  | Error cycle ->
      Format.printf "reference cycle: %s@."
        (String.concat " -> " (List.map (Format.asprintf "%a" Oid.pp) cycle)));

  Format.printf "@.-- static policy (default) --@.";
  (try ignore (Core.Runtime.create ~config:Core.Config.default ~catalog)
   with Invalid_argument msg -> Format.printf "rejected at creation: %s@." msg);

  Format.printf "@.-- run-time policy (allow_recursive_catalogs) --@.";
  let config =
    {
      Core.Config.default with
      Core.Config.allow_recursive_catalogs = true;
      trace_capacity = 1000;
      node_count = 2;
    }
  in
  let rt = Core.Runtime.create ~config ~catalog in
  (* relay only goes one hop: legal despite the cyclic catalog. *)
  Core.Runtime.submit rt ~at:0.0 ~node:0 ~oid:(Oid.of_int 0) ~meth:2 (* relay *) ~seed:1;
  (* bounce recurses Ping -> Pong -> Ping: rejected at run time. *)
  Core.Runtime.submit rt ~at:1_000.0 ~node:1 ~oid:(Oid.of_int 0) ~meth:0 (* bounce *) ~seed:2;
  Core.Runtime.run rt;
  List.iter
    (fun (r : Core.Runtime.root_result) ->
      Format.printf "%s on %a: %s after %d attempt(s)@." r.Core.Runtime.meth Oid.pp
        r.Core.Runtime.oid
        (match r.Core.Runtime.outcome with
        | Core.Runtime.Committed -> "committed"
        | Core.Runtime.Gave_up -> "rejected")
        r.Core.Runtime.attempts)
    (Core.Runtime.results rt);
  (match Core.Runtime.trace rt with
  | Some tr ->
      Format.printf "@.trace tail:@.";
      List.iter
        (fun e -> Format.printf "%a@." (Sim.Trace.pp_entry Dsm.Event.pp) e)
        (Sim.Trace.latest tr 6)
  | None -> ());
  (* The rejected family's writes were rolled back: Ping (which only bounce
     wrote) is back at version 0; Pong carries relay's committed poke. *)
  let versions_of o =
    let _, versions = Gdo.Directory.page_map (Core.Runtime.directory rt) (Oid.of_int o) in
    String.concat "," (Array.to_list (Array.map string_of_int versions))
  in
  Format.printf "@.Ping page versions: %s (bounce's write undone)@." (versions_of 0);
  Format.printf "Pong page versions: %s (relay's poke committed)@." (versions_of 1)
