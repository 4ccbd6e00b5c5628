(* The hot-account preset: {!Workload.Scenarios.bank} with the sweep's
   skew — the only axis the experiment varies about the workload. *)
let default_spec ~skew = { Workload.Scenarios.bank with Workload.Spec.access_skew = skew }

let default_params = Dsm.Escrow.default_params

let point skew = { Ab.coords = [ ("skew", skew) ]; spec = default_spec ~skew; config = Fun.id }

let headline rows =
  let escrow_lotec =
    List.filter (fun r -> r.Ab.protocol = Dsm.Protocol.Lotec && r.Ab.mode = "escrow") rows
  in
  Option.bind
    (Ab.best ~by:(fun r -> Ab.coord r "skew") escrow_lotec)
    (fun on -> Option.map (fun b -> (b, on)) (Ab.baseline_of rows on))

let lever =
  {
    Ab.name = "escrow";
    protocols = Dsm.Protocol.all;
    points = List.map point [ 0.6; 1.2 ];
    modes =
      [
        { Ab.label = "exclusive"; apply = Fun.id };
        {
          label = "escrow";
          apply = (fun c -> { c with Core.Config.escrow = Dsm.Escrow.On default_params });
        };
      ];
    counters =
      (fun m ->
        let t = Dsm.Metrics.totals m in
        [
          ("reserves", t.escrow_reserves);
          ("local_commits", t.escrow_local_commits);
          ("reconciles", t.escrow_reconciles);
          ("recalls", t.escrow_recalls);
          ("refusals", t.escrow_refusals);
        ]);
    gates =
      [
        {
          measure = "headline LOTEC completion reduction vs exclusive (%)";
          bound = At_least 25.0;
          value =
            (fun rows ->
              Option.map
                (fun (baseline, on) ->
                  100.0 *. (1.0 -. Ab.ratio (fun r -> r.Ab.completion_us) ~baseline on))
                (headline rows));
        };
      ];
  }
