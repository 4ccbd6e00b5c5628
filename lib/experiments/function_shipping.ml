(* The locality-skewed nesting preset: multi-page objects whose pages all
   start at one home node, methods that touch most of them, and deep
   nesting so a large share of invocations target objects homed away from
   the invoker — the regime where moving the method beats moving the
   pages. [skew] concentrates root traffic on the low-numbered objects,
   raising the fraction of cross-node invocations of the same hot homes. *)
let default_spec ~skew =
  {
    Workload.Spec.default with
    Workload.Spec.seed = 77;
    object_count = 48;
    min_pages = 3;
    max_pages = 6;
    root_count = 120;
    arrival_mean_us = 400.0;
    access_fraction = 0.85;
    access_density = 0.95;
    scatter_probability = 0.0;
    write_fraction = 0.3;
    branch_probability = 0.1;
    invoke_probability = 0.75;
    max_ref_slots = 3;
    read_only_method_fraction = 0.4;
    access_skew = skew;
  }

let default_params = Dsm.Shipping.default_params

let point skew software_us =
  {
    Ab.coords = [ ("skew", skew); ("sw_us", software_us) ];
    spec = default_spec ~skew;
    config =
      (fun c ->
        {
          c with
          Core.Config.link = { c.Core.Config.link with Sim.Network.software_cost_us = software_us };
        });
  }

let headline rows =
  let skewed_lotec =
    List.filter
      (fun r ->
        r.Ab.protocol = Dsm.Protocol.Lotec && r.Ab.mode = "shipping" && Ab.coord r "skew" > 0.0)
      rows
  in
  Option.bind
    (Ab.best ~by:(fun r -> (Ab.coord r "skew", -.Ab.coord r "sw_us")) skewed_lotec)
    (fun on -> Option.map (fun b -> (b, on)) (Ab.baseline_of rows on))

let headline_ratio f rows =
  Option.map (fun (baseline, on) -> Ab.ratio f ~baseline on) (headline rows)

let lever =
  {
    Ab.name = "ship";
    protocols = Dsm.Protocol.all;
    points =
      List.concat_map (fun skew -> List.map (point skew) [ 20.0; 60.0 ]) [ 0.0; 1.5 ];
    modes =
      [
        { Ab.label = "data-ship"; apply = Fun.id };
        {
          label = "shipping";
          (* The model's σ tracks the link it is costing against. *)
          apply =
            (fun c ->
              {
                c with
                Core.Config.shipping =
                  Dsm.Shipping.On
                    {
                      default_params with
                      Dsm.Shipping.software_us = c.Core.Config.link.Sim.Network.software_cost_us;
                    };
              });
        };
      ];
    counters =
      (fun m ->
        let t = Dsm.Metrics.totals m in
        [
          ("ships", t.ships);
          ("declines", t.ship_declines);
          ("forced", t.ships_forced);
          ("predicted_saved_bytes", t.ship_bytes_saved);
        ]);
    gates =
      [
        {
          measure = "headline LOTEC bytes reduction vs data-ship (%)";
          bound = At_least 30.0;
          value =
            (fun rows ->
              Option.map
                (fun x -> 100.0 *. (1.0 -. x))
                (headline_ratio (fun r -> float_of_int r.Ab.bytes) rows));
        };
        {
          measure = "headline LOTEC completion ratio vs data-ship";
          bound = At_most 1.02;
          value = headline_ratio (fun r -> r.Ab.completion_us);
        };
      ];
  }
