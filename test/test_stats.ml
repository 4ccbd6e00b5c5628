(* Tests for the descriptive-statistics helpers and the granularity
   experiment. *)

let test_mean () =
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Experiments.Stats.mean []);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Experiments.Stats.mean [ 1.0; 2.0; 3.0; 4.0 ])

let test_stddev () =
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Experiments.Stats.stddev []);
  Alcotest.(check (float 1e-9)) "singleton" 0.0 (Experiments.Stats.stddev [ 5.0 ]);
  Alcotest.(check (float 1e-6)) "known" 2.0 (Experiments.Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Experiments.Stats.percentile 50.0 xs);
  Alcotest.(check (float 1e-9)) "p95" 95.0 (Experiments.Stats.percentile 95.0 xs);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Experiments.Stats.percentile 100.0 xs);
  Alcotest.(check (float 1e-9)) "p0 clamps to min" 1.0 (Experiments.Stats.percentile 0.0 xs);
  Alcotest.(check (float 1e-9)) "unsorted input" 50.0
    (Experiments.Stats.percentile 50.0 (List.rev xs));
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Experiments.Stats.percentile 50.0 []);
  Alcotest.check_raises "out of range" (Invalid_argument "Stats.percentile: p out of [0,100]")
    (fun () -> ignore (Experiments.Stats.percentile 120.0 xs))

let test_median () =
  Alcotest.(check (float 1e-9)) "median" 2.0 (Experiments.Stats.median [ 3.0; 1.0; 2.0 ])

let test_root_latencies () =
  let catalog =
    Objmodel.Catalog.create
      [
        {
          Objmodel.Catalog.oid = Objmodel.Oid.of_int 0;
          cls =
            Objmodel.Obj_class.compile ~page_size:4096
              (Objmodel.Obj_class.define ~name:"K"
                 ~attrs:[| Objmodel.Attribute.make ~name:"x" ~size_bytes:64 |]
                 ~methods:[ Objmodel.Method_ir.make ~name:"m" ~body:[ Objmodel.Method_ir.Write 0 ] ]
                 ~ref_slots:0);
          refs = [||];
        };
      ]
  in
  let rt = Core.Runtime.create ~config:Core.Config.default ~catalog in
  Named.submit rt ~at:0.0 ~node:0 ~oid:(Objmodel.Oid.of_int 0) ~meth:"m" ~seed:1;
  Named.submit rt ~at:100.0 ~node:1 ~oid:(Objmodel.Oid.of_int 0) ~meth:"m" ~seed:2;
  Core.Runtime.run rt;
  let lats = Experiments.Stats.root_latencies rt in
  Alcotest.(check int) "two latencies" 2 (List.length lats);
  List.iter (fun l -> Alcotest.(check bool) "positive" true (l > 0.0)) lats

let test_granularity_experiment () =
  let r =
    Experiments.Granularity.run ~total_pages:48 ~root_count:60 ~granularities:[ 2; 8 ] ()
  in
  Alcotest.(check int) "two rows" 2 (List.length r.Experiments.Granularity.rows);
  (match r.Experiments.Granularity.rows with
  | [ fine; coarse ] ->
      Alcotest.(check int) "fine objects" 24 fine.Experiments.Granularity.object_count;
      Alcotest.(check int) "coarse objects" 6 coarse.Experiments.Granularity.object_count;
      (* The §5.1 claim: coarser granularity -> fewer global lock ops. *)
      Alcotest.(check bool)
        (Printf.sprintf "coarse locks (%d) < fine locks (%d)"
           coarse.Experiments.Granularity.global_acquisitions
           fine.Experiments.Granularity.global_acquisitions)
        true
        (coarse.Experiments.Granularity.global_acquisitions
        < fine.Experiments.Granularity.global_acquisitions)
  | _ -> Alcotest.fail "rows");
  let s = Format.asprintf "%a" Experiments.Granularity.pp r in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_granularity_validation () =
  Alcotest.check_raises "non-divisor"
    (Invalid_argument "Granularity.run: granularity must divide total_pages") (fun () ->
      ignore (Experiments.Granularity.run ~total_pages:10 ~granularities:[ 3 ] ()))

let tests =
  [
    ( "stats",
      [
        Alcotest.test_case "mean" `Quick test_mean;
        Alcotest.test_case "stddev" `Quick test_stddev;
        Alcotest.test_case "percentile" `Quick test_percentile;
        Alcotest.test_case "median" `Quick test_median;
        Alcotest.test_case "root latencies" `Quick test_root_latencies;
        Alcotest.test_case "granularity experiment" `Slow test_granularity_experiment;
        Alcotest.test_case "granularity validation" `Quick test_granularity_validation;
      ] );
  ]
