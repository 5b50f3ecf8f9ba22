(* Micro-shapes: one loop over one layer's public entry point each,
   reporting host nanoseconds and minor words per call.  The stacks are
   built with the paper's constants (Core.Params) and set up outside the
   timed region; the timed region is the loop and the engine run that
   carries it out. *)

type shape = {
  name : string;  (** per-layer metric name *)
  ns : float;  (** host ns per call *)
  words : float;  (** minor words per call *)
  packets : float;  (** FLIP packets sent per call *)
  frames : float;  (** frames carried per call *)
  events : float;  (** engine events per call *)
}

let measure name ~calls ?(flips = [||]) ?(segments = [||]) f =
  let packets () = Array.fold_left (fun a fl -> a + Flip.Flip_iface.packets_out fl) 0 flips in
  let frames () = Array.fold_left (fun a s -> a + Net.Segment.frames_carried s) 0 segments in
  let p0 = packets () and f0 = frames () and e0 = Sim.Engine.events_total () in
  let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  f ();
  let dt = Unix.gettimeofday () -. t0 and dw = Gc.minor_words () -. w0 in
  let per x = float_of_int x /. float_of_int calls in
  {
    name;
    ns = dt *. 1e9 /. float_of_int calls;
    words = dw /. float_of_int calls;
    packets = per (packets () - p0);
    frames = per (frames () - f0);
    events = per (Sim.Engine.events_total () - e0);
  }

let cluster n = Core.Cluster.create ~lanes:false ~n ()
let segments (c : Core.Cluster.t) = c.Core.Cluster.topo.Net.Topology.segments

let thread (c : Core.Cluster.t) rank name body =
  ignore (Machine.Thread.spawn c.Core.Cluster.machines.(rank) name body)

let sim_event n =
  let eng = Sim.Engine.create () in
  let rec tick k = if k > 0 then ignore (Sim.Engine.after eng 1 (fun () -> tick (k - 1))) in
  measure "sim.ns_per_event" ~calls:n (fun () ->
      tick n;
      Sim.Engine.run eng)

(* A far timer armed and cancelled: the retransmission-timer pattern. *)
let sim_timer n =
  let eng = Sim.Engine.create () in
  measure "sim.ns_per_timer" ~calls:n (fun () ->
      for _ = 1 to n do
        Sim.Engine.cancel eng (Sim.Engine.after eng (Sim.Time.ms 200) ignore)
      done)

let sim_fiber_switch n =
  let eng = Sim.Engine.create () in
  measure "sim.ns_per_fiber_switch" ~calls:n (fun () ->
      ignore (Sim.Fiber.spawn eng (fun () -> for _ = 1 to n do Sim.Fiber.yield () done));
      Sim.Engine.run eng)

let machine_charge n =
  let c = cluster 1 in
  measure "machine.ns_per_charge" ~calls:n (fun () ->
      thread c 0 "charge" (fun () ->
          for _ = 1 to n do Machine.Thread.compute (Sim.Time.us 1) done);
      Sim.Engine.run c.Core.Cluster.eng)

(* Raw frames between two bare NICs on one segment. *)
let net_frame n =
  let eng = Sim.Engine.create () in
  let machines =
    Array.init 2 (fun i ->
        Machine.Mach.create eng ~id:i ~name:(Printf.sprintf "m%d" i) Core.Params.machine)
  in
  let topo = Net.Topology.build eng ~machines () in
  let received = ref 0 in
  Net.Nic.set_rx (Net.Topology.nic topo 1) (fun _ -> incr received);
  let frame = Net.Frame.make ~src:0 ~dest:(Net.Frame.Unicast 1) ~bytes:64 Sim.Payload.Empty in
  let s =
    measure "net.ns_per_frame" ~calls:n ~segments:topo.Net.Topology.segments (fun () ->
        for _ = 1 to n do Net.Nic.send (Net.Topology.nic topo 0) frame done;
        Sim.Engine.run eng)
  in
  assert (!received = n);
  s

(* One-packet FLIP datagrams to a point address on the other machine; the
   first one locates the route. *)
let flip_packet n =
  let c = cluster 2 in
  let eng = c.Core.Cluster.eng and flips = c.Core.Cluster.flips in
  let src = Flip.Address.fresh_point eng and dst = Flip.Address.fresh_point eng in
  let received = ref 0 in
  Flip.Flip_iface.register flips.(0) src (fun _ -> ());
  Flip.Flip_iface.register flips.(1) dst (fun _ -> incr received);
  let s =
    measure "flip.ns_per_packet" ~calls:n ~flips ~segments:(segments c) (fun () ->
        thread c 0 "flip" (fun () ->
            for _ = 1 to n do
              Flip.Flip_iface.unicast flips.(0) ~src ~dst ~size:32 Sim.Payload.Empty
            done);
        Sim.Engine.run eng)
  in
  assert (!received = n);
  s

let amoeba_trans n =
  let c = cluster 2 in
  let flips = c.Core.Cluster.flips in
  let server = Amoeba.Rpc.create ~config:Core.Params.amoeba_rpc flips.(1) in
  let client = Amoeba.Rpc.create ~config:Core.Params.amoeba_rpc flips.(0) in
  let port = Amoeba.Rpc.export server ~name:"bench" in
  thread c 1 "server" (fun () ->
      for _ = 1 to n do
        let r = Amoeba.Rpc.get_request port in
        Amoeba.Rpc.put_reply port r ~size:0 Sim.Payload.Empty
      done);
  measure "amoeba.ns_per_trans" ~calls:n ~flips ~segments:(segments c) (fun () ->
      thread c 0 "client" (fun () ->
          for _ = 1 to n do
            ignore (Amoeba.Rpc.trans client ~dst:(Amoeba.Rpc.address port) ~size:0 Sim.Payload.Empty)
          done);
      Sim.Engine.run c.Core.Cluster.eng)

let panda_systems (c : Core.Cluster.t) =
  Array.mapi
    (fun i fl ->
      Panda.System_layer.create ~config:Core.Params.panda_system
        ~name:(Printf.sprintf "pan%d" i) fl)
    c.Core.Cluster.flips

let panda_trans n =
  let c = cluster 2 in
  let sys = panda_systems c in
  let server = Panda.Rpc.create ~config:Core.Params.panda_rpc sys.(1) in
  let client = Panda.Rpc.create ~config:Core.Params.panda_rpc sys.(0) in
  Panda.Rpc.set_request_handler server (fun ~client:_ ~size:_ _ ~reply ->
      reply ~size:0 Sim.Payload.Empty);
  measure "panda.ns_per_trans" ~calls:n ~flips:c.Core.Cluster.flips ~segments:(segments c)
    (fun () ->
      thread c 0 "client" (fun () ->
          for _ = 1 to n do
            ignore (Panda.Rpc.trans client ~dst:(Panda.Rpc.address server) ~size:0 Sim.Payload.Empty)
          done);
      Sim.Engine.run c.Core.Cluster.eng)

(* Group sends from one member of a 4-member group under the failover
   policy (as in loss-soak); also returns the sequencer's history
   high-water, sampled after every send. *)
let panda_group_send n =
  let c = cluster 4 in
  let sys = panda_systems c in
  let group, members =
    Panda.Group.create_static ~config:Core.Params.panda_group ~policy:Panda.Seq_policy.Failover
      ~name:"bench" ~sequencer:(Panda.Group.On_member 0) sys
  in
  Array.iter (fun mb -> Panda.Group.set_handler mb (fun ~sender:_ ~size:_ _ -> ())) members;
  let history = ref 0 in
  let s =
    measure "panda.ns_per_group_send" ~calls:n ~flips:c.Core.Cluster.flips
      ~segments:(segments c) (fun () ->
        thread c 1 "sender" (fun () ->
            for _ = 1 to n do
              Panda.Group.send members.(1) ~size:0 Sim.Payload.Empty;
              history := max !history (Panda.Group.history_length group)
            done);
        Sim.Engine.run c.Core.Cluster.eng)
  in
  (s, !history)

let onesided_read n =
  let c = cluster 2 in
  let rnics = Core.Cluster.rnics c in
  Onesided.Rnic.register_region rnics.(1) (Onesided.Region.create ~key:1 ~name:"bench" ~words:16);
  measure "onesided.ns_per_read" ~calls:n ~flips:c.Core.Cluster.flips ~segments:(segments c)
    (fun () ->
      thread c 0 "reader" (fun () ->
          for _ = 1 to n do
            ignore
              (Onesided.Rnic.read rnics.(0) ~dst:(Onesided.Rnic.addr rnics.(1)) ~rkey:1 ~off:0
                 ~words:4)
          done);
      Sim.Engine.run c.Core.Cluster.eng)

(* A read of an object owned by the other rank: one Panda RPC per call. *)
let orca_invoke n =
  let c = cluster 2 in
  let dom = Core.Cluster.domain c Core.Cluster.User in
  let obj = Orca.Rts.declare dom ~name:"bench" ~placement:(Orca.Rts.Owned 1) ~init:(fun ~rank:_ -> 0) in
  let get = Orca.Rts.defop obj ~name:"get" ~kind:`Read (fun _ _ -> Sim.Payload.Empty) in
  measure "orca.ns_per_invoke" ~calls:n ~flips:c.Core.Cluster.flips ~segments:(segments c)
    (fun () ->
      ignore
        (Orca.Rts.spawn dom ~rank:0 "invoker" (fun ~rank:_ ->
             for _ = 1 to n do ignore (Orca.Rts.invoke get Sim.Payload.Empty) done));
      Sim.Engine.run c.Core.Cluster.eng)

let sink = ref 0

let load_key_draw n =
  let keys = Shard.Service.default_params.Shard.Service.sv_keys in
  let cdf = Load.Keys.cdf (Load.Keys.Zipf 0.99) ~keys in
  let rng = Sim.Rng.create ~seed:1 in
  measure "load.ns_per_key_draw" ~calls:n (fun () ->
      for _ = 1 to n do sink := !sink + Load.Keys.draw ?cdf ~keys rng done)

let shard_route n =
  let router = Shard.Router.create ~shards:32 ~replicas:1 ~servers:(Array.init 32 Fun.id) in
  measure "shard.ns_per_route" ~calls:n (fun () ->
      for k = 1 to n do sink := !sink + Shard.Router.owner_of_key router (k land 4095) done)

(* Every shape at [percent] of its full call count (100 for the
   benchmark, 1 for the self-test), plus the group history high-water. *)
let run percent =
  let n x = max 1 (x * percent / 100) in
  let group, history = panda_group_send (n 2_000) in
  let shapes =
    [
      sim_event (n 200_000);
      sim_timer (n 200_000);
      sim_fiber_switch (n 200_000);
      machine_charge (n 50_000);
      net_frame (n 20_000);
      flip_packet (n 10_000);
      amoeba_trans (n 3_000);
      panda_trans (n 3_000);
      group;
      onesided_read (n 3_000);
      orca_invoke (n 3_000);
      load_key_draw (n 500_000);
      shard_route (n 1_000_000);
    ]
  in
  (shapes, history)

(* The layer below each shape and how many of its calls one call makes,
   for the self-time estimate: ns/call minus the child's share. *)
let child s =
  match s.name with
  | "orca.ns_per_invoke" -> Some ("panda.ns_per_trans", 1.)
  | "amoeba.ns_per_trans" | "panda.ns_per_trans" | "panda.ns_per_group_send"
  | "onesided.ns_per_read" ->
    Some ("flip.ns_per_packet", s.packets)
  | "flip.ns_per_packet" -> Some ("net.ns_per_frame", s.frames)
  | "net.ns_per_frame" | "machine.ns_per_charge" -> Some ("sim.ns_per_event", s.events)
  | _ -> None

let print oc shapes =
  let ns_of name = (List.find (fun s -> s.name = name) shapes).ns in
  List.iter
    (fun s ->
      let self, below =
        match child s with
        | Some (c, k) -> (s.ns -. (k *. ns_of c), Printf.sprintf "- %.2f x %s" k c)
        | None -> (s.ns, "")
      in
      Printf.fprintf oc "micro %-26s %9.1f ns/call %8.1f words/call  self %9.1f ns %s\n" s.name
        s.ns s.words self below)
    shapes
