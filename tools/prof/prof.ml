(* Sampling profiler: runs one streaming scale point (LOTEC by default)
   under a CPU-time interval timer and records the OCaml call stack at
   every tick, then prints the frames seen most often on top of the stack
   (self) and anywhere in it (inclusive), and then the samples spent
   outside the repository's code charged to the repository frame that
   called out (a [Format] or [Set] call hidden inside a helper shows up
   there, not as anonymous stdlib self time). The three tables are printed
   twice: once for the workload generation phase (every sample with a
   [Workload.Generator] frame on its stack) and once for the run, so that
   generation cost does not hide among runtime frames. Stdlib and unix
   only; frames are named from the executable's debug info.

   Usage: prof.exe [ROOTS] [NODES] [PROTOCOL]   (default 40000 64 lotec) *)

let interval_s = 0.001
let depth = 64

type phase = {
  title : string;
  mutable samples : int;
  self : (string, int) Hashtbl.t;
  incl : (string, int) Hashtbl.t;
  charged : (string, int) Hashtbl.t;
}

let phase title =
  { title; samples = 0; self = Hashtbl.create 256; incl = Hashtbl.create 256;
    charged = Hashtbl.create 256 }

let generation = phase "generation" and run = phase "run"
let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let frame slot =
  match Printexc.Slot.name slot, Printexc.Slot.location slot with
  | Some name, _ -> name
  | None, Some l -> Printf.sprintf "%s:%d" l.Printexc.filename l.Printexc.line_number
  | None, None -> "?"

(* Frames of this repository's libraries and executables, by the module
   path prefix dune gives them; everything else is stdlib or unix. *)
let repo_prefixes =
  [ "Sim__"; "Objmodel__"; "Txn__"; "Gdo__"; "Dsm__"; "Core__"; "Workload__"; "Experiments__";
    "Dune__exe__" ]

let is_repo frame = List.exists (fun prefix -> String.starts_with ~prefix frame) repo_prefixes

(* A sample whose top frame is outside the repository goes to the innermost
   repository frame below it, keyed with the outside function it called. *)
let charge ph = function
  | top :: rest when not (is_repo top) ->
      let rec walk entry = function
        | [] -> ()
        | f :: _ when is_repo f -> bump ph.charged (f ^ " -> " ^ entry)
        | f :: rest -> walk f rest
      in
      walk top rest
  | _ -> ()

let sample _ =
  match Printexc.backtrace_slots (Printexc.get_callstack depth) with
  | None -> ()
  | Some slots ->
      (* Slot 0 is this handler; the interrupted code starts at slot 1. *)
      let frames = List.tl (List.map frame (Array.to_list slots)) in
      if frames <> [] then begin
        let ph =
          if List.exists (String.starts_with ~prefix:"Workload__Generator") frames then generation
          else run
        in
        ph.samples <- ph.samples + 1;
        bump ph.self (List.hd frames);
        List.iter (bump ph.incl) (List.sort_uniq String.compare frames);
        charge ph frames
      end

(* Shares are of the phase's own samples. *)
let top ph title tbl =
  Printf.printf "\n%s: %s (%d samples)\n" ph.title title ph.samples;
  Hashtbl.fold (fun k n acc -> (n, k) :: acc) tbl []
  |> List.sort (fun a b -> compare b a)
  |> List.iteri (fun i (n, k) ->
         if i < 25 then
           Printf.printf "  %5.1f%%  %6d  %s\n" (100. *. float n /. float (max 1 ph.samples)) n k)

let report ph =
  let total = generation.samples + run.samples in
  Printf.printf "\n== %s phase: %d of %d samples (%.1f%%) ==\n" ph.title ph.samples total
    (100. *. float ph.samples /. float (max 1 total));
  top ph "self" ph.self;
  top ph "inclusive" ph.incl;
  top ph "outside the repo, by repo caller -> callee" ph.charged

let () =
  let arg i default = if Array.length Sys.argv > i then Sys.argv.(i) else default in
  let roots = int_of_string (arg 1 "40000") and nodes = int_of_string (arg 2 "64") in
  let protocol =
    match Dsm.Protocol.of_string (arg 3 "lotec") with Ok p -> p | Error e -> failwith e
  in
  let spec = Experiments.Scale.spec_for ~roots ~nodes in
  Sys.set_signal Sys.sigprof (Sys.Signal_handle sample);
  let timer v = ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = v; it_value = v }) in
  timer interval_s;
  let row = Experiments.Scale.run_point ~protocol ~spec () in
  timer 0.0;
  Format.printf "%a@." Experiments.Scale.pp_profile row.Experiments.Scale.s_profile;
  report generation;
  report run
