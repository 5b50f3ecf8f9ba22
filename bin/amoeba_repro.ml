(* Command-line driver for the reproduction: one subcommand per registered
   experiment (see Front.Registry), with the shared run-context flags. *)

open Cmdliner

let () =
  let info =
    Cmd.info "amoeba_repro" ~version:"1.0"
      ~doc:
        "Reproduction of 'Comparing Kernel-Space and User-Space Communication \
         Protocols on Amoeba' (ICDCS 1995) as a discrete-event simulation"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default:Term.(ret (const (`Help (`Pager, None)))) info
          (List.map Front.Registry.command Front.Registry.experiments)))
