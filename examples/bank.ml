(* Banking: nested object transactions in the paper's motivating domain —
   transaction processing, where throughput comes from volume, not from
   single-transaction complexity (paper §2).

   A Bank owns Branches; a Branch owns Accounts. A money transfer is a root
   transaction on a branch that invokes withdraw and deposit
   sub-transactions on two accounts — a three-level closed nested family.
   Some transfers fail at the sub-transaction level (insufficient funds,
   modelled by injected aborts) and retry or roll back without touching the
   rest of the system.

   Compares all four protocols on the same deterministic workload.

   Run with: dune exec examples/bank.exe *)

open Objmodel

let account_class =
  Obj_class.compile ~page_size:4096
    (Obj_class.define ~name:"Account"
       ~attrs:
         [|
           Attribute.make ~name:"balance" ~size_bytes:64;
           Attribute.make ~name:"owner" ~size_bytes:512;
           (* The statement ledger spans several later pages; movements
              append to it, but a balance check never reads it — the slice
              LOTEC can decline to transfer. *)
           Attribute.make ~name:"statement" ~size_bytes:14000;
         |]
       ~methods:
         [
           Method_ir.make ~name:"withdraw"
             ~body:[ Method_ir.Read 0; Method_ir.Write 0; Method_ir.Write 2 ];
           Method_ir.make ~name:"deposit"
             ~body:[ Method_ir.Read 0; Method_ir.Write 0; Method_ir.Write 2 ];
           Method_ir.make ~name:"balance" ~body:[ Method_ir.Read 0 ];
           Method_ir.make ~name:"statement"
             ~body:[ Method_ir.Read 0; Method_ir.Read 1; Method_ir.Read 2 ];
         ]
       ~ref_slots:0)

(* Invocations name their target's method by index. *)
let account = Obj_class.method_index account_class

(* A branch holds two "featured" account references used by this workload's
   transfers; its own attribute tracks transfer volume. *)
let branch_class =
  Obj_class.compile ~page_size:4096
    (Obj_class.define ~name:"Branch"
       ~attrs:[| Attribute.make ~name:"volume" ~size_bytes:64 |]
       ~methods:
         [
           Method_ir.make ~name:"transfer"
             ~body:
               [
                 Method_ir.Invoke { slot = 0; meth = account "withdraw" };
                 Method_ir.Invoke { slot = 1; meth = account "deposit" };
                 Method_ir.Read 0;
                 Method_ir.Write 0;
               ];
           Method_ir.make ~name:"audit"
             ~body:
               [
                 Method_ir.Invoke { slot = 0; meth = account "statement" };
                 Method_ir.Invoke { slot = 1; meth = account "statement" };
                 Method_ir.Read 0;
               ];
           Method_ir.make ~name:"verify"
             ~body:
               [
                 Method_ir.Invoke { slot = 0; meth = account "balance" };
                 Method_ir.Invoke { slot = 1; meth = account "balance" };
                 Method_ir.Read 0;
               ];
         ]
       ~ref_slots:2)

let build_catalog ~branches ~accounts_per_branch =
  let oid = Oid.of_int in
  let accounts_start = branches in
  let instances =
    List.init branches (fun b ->
        let a0 = accounts_start + (b * accounts_per_branch) in
        {
          Catalog.oid = oid b;
          cls = branch_class;
          refs = [| oid a0; oid (a0 + 1) |];
        })
    @ List.init (branches * accounts_per_branch) (fun a ->
          { Catalog.oid = oid (accounts_start + a); cls = account_class; refs = [||] })
  in
  Catalog.create instances

let () =
  let branches = 6 and accounts_per_branch = 4 in
  let catalog = build_catalog ~branches ~accounts_per_branch in
  Format.printf "bank: %d branches, %d accounts, %d total pages@." branches
    (branches * accounts_per_branch)
    (Catalog.total_pages catalog);
  let submit rt =
    let rng = Sim.Prng.create ~seed:2024 in
    let clock = ref 0.0 in
    for i = 0 to 119 do
      clock := !clock +. Sim.Prng.exponential rng ~mean:120.0;
      let branch = Sim.Prng.int rng branches in
      let meth =
        let u = Sim.Prng.float rng 1.0 in
        if u < 0.15 then "audit" else if u < 0.45 then "verify" else "transfer"
      in
      Core.Runtime.submit rt ~at:!clock ~node:(i mod 4) ~oid:(Oid.of_int branch)
        ~meth:(Obj_class.method_index branch_class meth) ~seed:(3000 + i)
    done
  in
  Format.printf "@.%-10s %12s %8s %12s %10s %8s@." "protocol" "bytes" "msgs" "completion"
    "commits" "aborts";
  List.iter
    (fun protocol ->
      let config =
        {
          Core.Config.default with
          Core.Config.node_count = 4;
          protocol;
          (* ~4% of withdraw/deposit sub-transactions fail and retry. *)
          abort_probability = 0.04;
        }
      in
      let rt = Core.Runtime.create ~config ~catalog in
      submit rt;
      Core.Runtime.run rt;
      (match Core.Runtime.check_serializable rt with
      | Core.Serializability.Serializable _ -> ()
      | Core.Serializability.Cyclic _ -> failwith "history not serializable");
      let m = Core.Runtime.metrics rt in
      let t = Dsm.Metrics.totals m in
      Format.printf "%-10s %12d %8d %12.0f %10d %8d@."
        (Format.asprintf "%a" Dsm.Protocol.pp protocol)
        (Dsm.Metrics.total_bytes m) (Dsm.Metrics.total_messages m)
        (Dsm.Metrics.completion_time_us m) t.Dsm.Metrics.roots_committed
        t.Dsm.Metrics.sub_aborts)
    Dsm.Protocol.all;
  Format.printf "@.(sub-transaction aborts are injected failures that undo locally and retry)@."
