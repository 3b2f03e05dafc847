// Package switchlets contains the loadable programs of the Active Bridge:
// the three bridge switchlets of paper §5.3 (dumb buffered repeater,
// self-learning bridge, 802.1D spanning tree), the DEC-style "old protocol"
// variant and the protocol-transition control switchlet of §5.4 — each
// written in swl (compiled to bytecode and loaded through the switchlet
// loader) — plus a native-code learning bridge, the paper's envisioned
// native-code-compilation ablation.
package switchlets

// DumbSrc is switchlet 1: "a minimal 'dumb' bridge ... actually performing
// the function of a buffered repeater." Every frame is queued to every
// network interface except the one on which it was received.
const DumbSrc = `
(* Dumb: programmable buffered repeater — paper §5.3 switchlet 1. *)
let forward pkt inport =
  let n = Unixnet.num_ports () in
  let rec go i =
    if i < n then begin
      (if i <> inport then Unixnet.send_pkt_out i pkt);
      go (i + 1)
    end
  in
  go 0

let handle pkt inport = forward pkt inport

let _ = Bridge.set_handler handle
let _ = Log.log "dumb: buffered repeater installed"
`

// LearningSrc is switchlet 2: "adds learning to the bridge. This switchlet
// replaces the switching function from the dumb bridge with one that learns
// the locations of the hosts." For each frame, (source address, time, input
// port) is recorded; known, current destinations are forwarded on one port,
// everything else is flooded. Multicast/broadcast sources are not learned
// and multicast/broadcast destinations are always flooded (paper footnote 3).
const LearningSrc = `
(* Learning: self-learning bridge — paper §5.3 switchlet 2. *)
let table = Hashtbl.create 256
let age_limit = 300 * 1000000 (* entry lifetime, microseconds *)

let is_group m = (land (String.get m 0) 1) = 1

let flood pkt inport =
  let n = Unixnet.num_ports () in
  let rec go i =
    if i < n then begin
      (if i <> inport then Unixnet.send_pkt_out i pkt);
      go (i + 1)
    end
  in
  go 0

let handle pkt inport =
  let dst = String.sub pkt 0 6 in
  let src = String.sub pkt 6 6 in
  let now = Safeunix.gettimeofday () in
  (if not (is_group src) then Hashtbl.add table src (inport, now));
  if is_group dst then flood pkt inport
  else if Hashtbl.mem table dst then begin
    let (port, seen) = Hashtbl.find table dst in
    if now - seen < age_limit then begin
      if port <> inport then Unixnet.send_pkt_out port pkt
    end
    else flood pkt inport
  end
  else flood pkt inport

let lookup_port mac =
  if Hashtbl.mem table mac then begin
    let (port, _) = Hashtbl.find table mac in
    string_of_int port
  end
  else "unknown"

let _ = Func.register "learning.lookup" lookup_port
let _ = Func.register "learning.size"
          (fun s -> string_of_int (Hashtbl.length table))
let _ = Bridge.set_handler handle
let _ = Log.log "learning: self-learning bridge installed"
`

// stpCommon is the body shared between the IEEE and DEC spanning tree
// switchlets. It is parameterized by simple textual substitution (exactly
// as the paper produced its DEC variant by modifying the 802.1D switchlet:
// "we modified the spanning tree switchlet to send DEC spanning tree
// packets to the DEC management multicast address").
//
// Vectors are represented as 22-byte strings (root id 8 | cost 4 |
// bridge id 8 | port 2); big-endian layout makes lexicographic string
// comparison coincide with 802.1D priority order.
const stpCommon = `
let hello_ms = 2000
let max_age_us = 20 * 1000000
let fwd_delay_us = 15 * 1000000
let path_cost = 19

let proto_addr = @ADDR@
let my_mac = Unixnet.bridge_id ()
let my_id = "\x80\x00" ^ my_mac

(* port -> (best heard vector, heard time) *)
let heard = Hashtbl.create 16
(* port -> role: 0 blocked, 1 root port, 2 designated *)
let roles = Hashtbl.create 16
(* port -> (state, since): 0 blocking 1 listening 2 learning 3 forwarding *)
let states = Hashtbl.create 16

let root = ref my_id
let root_cost = ref 0
let root_port = ref (0 - 1)
let enabled = ref false
let bound = ref false

let pkey p = string_of_int p

let be16 v = String.make 1 (land (lsr v 8) 255) ^ String.make 1 (land v 255)
let be32 v = be16 (land (lsr v 16) 65535) ^ be16 (land v 65535)
let rd32 s off =
  (String.get s off) * 16777216 + (String.get s (off + 1)) * 65536 +
  (String.get s (off + 2)) * 256 + String.get s (off + 3)

let my_vector port = !root ^ be32 !root_cost ^ my_id ^ be16 port

let get_role p = if Hashtbl.mem roles (pkey p) then Hashtbl.find roles (pkey p) else 2
let get_state p = if Hashtbl.mem states (pkey p) then Hashtbl.find states (pkey p) else (1, 0)

let set_role p r now =
  let old = if Hashtbl.mem roles (pkey p) then Hashtbl.find roles (pkey p) else 0 - 1 in
  if old <> r then begin
    Hashtbl.add roles (pkey p) r;
    if r = 0 then Hashtbl.add states (pkey p) (0, now)
    else begin
      let (st, _) = get_state p in
      if st = 0 then Hashtbl.add states (pkey p) (1, now)
    end
  end

(* Suppression access point: only forwarding-state tree ports carry data. *)
let apply_blocks () =
  let n = Unixnet.num_ports () in
  for p = 0 to n - 1 do
    let r = get_role p in
    let (st, _) = get_state p in
    Unixnet.set_port_block p (not (r > 0 && st = 3))
  done

let recompute () =
  let now = Safeunix.gettimeofday () in
  let n = Unixnet.num_ports () in
  root := my_id; root_cost := 0; root_port := 0 - 1;
  let best_full = ref "" in
  for p = 0 to n - 1 do
    if Hashtbl.mem heard (pkey p) then begin
      let (v, at) = Hashtbl.find heard (pkey p) in
      if now - at > max_age_us then Hashtbl.remove heard (pkey p)
      else begin
        let vroot = String.sub v 0 8 in
        let full = v ^ be16 p in
        if vroot < !root || (vroot = !root && !root_port >= 0 && full < !best_full) then begin
          root := vroot;
          root_cost := rd32 v 8 + path_cost;
          root_port := p;
          best_full := full
        end
      end
    end
  done;
  let now2 = Safeunix.gettimeofday () in
  for p = 0 to n - 1 do
    if p = !root_port then set_role p 1 now2
    else if Hashtbl.mem heard (pkey p) then begin
      let (v, _) = Hashtbl.find heard (pkey p) in
      if my_vector p < v then set_role p 2 now2 else set_role p 0 now2
    end
    else set_role p 2 now2
  done;
  apply_blocks ()

let note_vector inport v =
  let k = pkey inport in
  let now = Safeunix.gettimeofday () in
  if Hashtbl.mem heard k then begin
    let (old, _) = Hashtbl.find heard k in
    if v < old || String.sub v 12 8 = String.sub old 12 8 then begin
      Hashtbl.add heard k (v, now);
      recompute ()
    end
  end
  else begin
    Hashtbl.add heard k (v, now);
    recompute ()
  end

let advance_states () =
  let now = Safeunix.gettimeofday () in
  let n = Unixnet.num_ports () in
  for p = 0 to n - 1 do
    if get_role p > 0 then begin
      let (st, since) = get_state p in
      if st = 0 then Hashtbl.add states (pkey p) (1, now)
      else if st < 3 && now - since >= fwd_delay_us then
        Hashtbl.add states (pkey p) (st + 1, since + fwd_delay_us)
    end
  done

let send_configs () =
  let n = Unixnet.num_ports () in
  for p = 0 to n - 1 do
    if get_role p = 2 then
      Unixnet.send_ctl_out p (proto_addr ^ my_mac ^ @ETYPE@ ^ encode_config p)
  done

let tick () =
  if !enabled then begin
    recompute ();
    advance_states ();
    apply_blocks ();
    send_configs ()
  end

let on_config pkt inport =
  if !enabled && String.length pkt >= 52 then begin
    let v = decode_config pkt in
    if String.length v = 22 then note_vector inport v
  end

let hexdig = "0123456789abcdef"
let hexs s =
  let out = ref "" in
  for i = 0 to String.length s - 1 do
    let b = String.get s i in
    out := !out ^ String.sub hexdig (lsr b 4) 1 ^ String.sub hexdig (land b 15) 1
  done;
  !out

let tree_info () =
  let n = Unixnet.num_ports () in
  let out = ref ("root=" ^ hexs !root ^ " cost=" ^ string_of_int !root_cost ^
                 " rp=" ^ string_of_int !root_port) in
  for p = 0 to n - 1 do
    out := !out ^ " p" ^ string_of_int p ^ "=" ^ string_of_int (get_role p)
  done;
  !out

let start () =
  let now = Safeunix.gettimeofday () in
  let n = Unixnet.num_ports () in
  enabled := true;
  Hashtbl.clear heard;
  root := my_id; root_cost := 0; root_port := 0 - 1;
  for p = 0 to n - 1 do
    Hashtbl.add roles (pkey p) 2;
    Hashtbl.add states (pkey p) (1, now)
  done;
  apply_blocks ();
  (if not !bound then begin
    Bridge.set_dst_handler proto_addr on_config;
    bound := true
  end);
  Bridge.set_timer @TIMER@ hello_ms tick;
  (* Announce immediately rather than waiting for the first hello tick:
     this is what makes reconfiguration propagate in well under a second
     (paper §7.5 measures 0.056 s start-to-seen). *)
  recompute ();
  send_configs ();
  Log.log (@NAME@ ^ ": spanning tree started")

let stop () =
  let n = Unixnet.num_ports () in
  enabled := false;
  Bridge.cancel_timer @TIMER@;
  (if !bound then begin
    Bridge.clear_dst_handler proto_addr;
    bound := false
  end);
  for p = 0 to n - 1 do
    Unixnet.set_port_block p false
  done;
  Log.log (@NAME@ ^ ": spanning tree stopped")

let _ = Func.register (@NAME@ ^ ".start") (fun s -> start (); "ok")
let _ = Func.register (@NAME@ ^ ".stop") (fun s -> stop (); "ok")
let _ = Func.register (@NAME@ ^ ".tree") (fun s -> tree_info ())
let _ = Func.register (@NAME@ ^ ".running")
          (fun s -> if !enabled then "yes" else "no")
let _ =
  (* Take advantage of locally available information (paper §5.4): when
     the other protocol is already operating, load dormant and wait for
     the control switchlet; otherwise start immediately. *)
  if Func.registered (@OTHER@ ^ ".running") &&
     Func.call (@OTHER@ ^ ".running") "" = "yes"
  then Log.log (@NAME@ ^ ": loaded dormant (" ^ @OTHER@ ^ " is operating)")
  else start ()
`

// ieeeEncode builds an 802.1D configuration BPDU around the 22-byte vector:
// 5 header bytes (protocol id, version, type, flags) + vector + 8 timer
// bytes (left zero; receivers in this repository derive timers locally).
const ieeeFragments = `
let encode_config p = String.make 5 0 ^ my_vector p ^ String.make 8 0
let decode_config pkt =
  (* frame: dst 0..5 src 6..11 type 12..13; BPDU at 14: proto id 14..15,
     version 16, type 17, flags 18, vector 19..40 *)
  if String.get pkt 14 = 0 && String.get pkt 15 = 0 &&
     String.get pkt 16 = 0 && String.get pkt 17 = 0
  then String.sub pkt 19 22
  else ""
`

// decFragments implements the deliberately incompatible DEC-style format:
// magic 0xe1, version, then bridge | port | root | cost (different field
// order, different length, different EtherType and multicast address).
const decFragments = `
let encode_config p =
  "\xe1\x01" ^ my_id ^ be16 p ^ !root ^ be32 !root_cost ^ "\x00\x00"
let decode_config pkt =
  if String.get pkt 14 = 225 && String.get pkt 15 = 1
  then String.sub pkt 26 8 ^ String.sub pkt 34 4 ^
       String.sub pkt 16 8 ^ String.sub pkt 24 2
  else ""
`

// ControlSrc is the §5.4 control switchlet implementing Table 1: it arms
// itself when the DEC protocol is operating and the IEEE protocol is
// loaded dormant; on the first IEEE BPDU it suspends DEC (capturing its
// spanning tree), starts IEEE, suppresses stray DEC frames for 30 s,
// validates the new protocol's spanning tree against the captured one at
// 60 s, and falls back automatically on mismatch or late DEC traffic.
const ControlSrc = `
(* Control: automatic protocol transition — paper §5.4 / Table 1. *)
let all_bridges = "\x01\x80\xc2\x00\x00\x00"
let dec_addr = "\x09\x00\x2b\x01\x00\x01"

(* 0 monitoring, 1 transition (suppress), 2 watch (fallback on DEC),
   3 done: passed, 4 done: fell back *)
let state = ref 0
let dec_tree = ref ""
let suppressed = ref 0

let phase_name () =
  if !state = 0 then "monitoring"
  else if !state = 1 then "transition"
  else if !state = 2 then "validating"
  else if !state = 3 then "complete"
  else "fallback"

let swallow_ieee pkt inport = suppressed := !suppressed + 1

let fallback reason =
  if !state < 3 then begin
    Log.log ("control: FALLBACK (" ^ reason ^ ")");
    state := 4;
    ignore (Func.call "ieee.stop" "");
    Bridge.clear_dst_handler dec_addr;
    ignore (Func.call "dec.start" "");
    (* Suppress any further new-protocol frames; the network is now
       considered stable and no further transition will occur without
       human intervention. *)
    Bridge.set_dst_handler all_bridges swallow_ieee
  end

let on_dec pkt inport =
  if !state = 1 then suppressed := !suppressed + 1
  else if !state = 2 then fallback "old-protocol packet after transition period"

let do_tests () =
  if !state = 2 then begin
    let it = Func.call "ieee.tree" "" in
    if it = !dec_tree then begin
      Log.log "control: tests passed; transition complete";
      state := 3;
      Bridge.clear_dst_handler dec_addr
    end
    else fallback ("spanning tree mismatch: new " ^ it ^ " expected " ^ !dec_tree)
  end

let end_suppression () =
  if !state = 1 then begin
    state := 2;
    Log.log "control: suppression period over; monitoring for failures"
  end

let on_first_ieee pkt inport =
  if !state = 0 then begin
    Log.log "control: IEEE BPDU observed; beginning transition";
    state := 1;
    dec_tree := Func.call "dec.tree" "";
    ignore (Func.call "dec.stop" "");
    Bridge.clear_dst_handler all_bridges;
    ignore (Func.call "ieee.start" "");
    Bridge.set_dst_handler dec_addr on_dec;
    Bridge.after 30000 end_suppression;
    Bridge.after 60000 do_tests
  end

let _ = Func.register "control.phase" (fun s -> phase_name ())
let _ = Func.register "control.suppressed"
          (fun s -> string_of_int !suppressed)
let _ = Func.register "control.dec_tree" (fun s -> !dec_tree)

let _ =
  if Func.registered "dec.running" && Func.registered "ieee.running" then begin
    if Func.call "dec.running" "" = "yes" && Func.call "ieee.running" "" = "no"
    then begin
      Bridge.set_dst_handler all_bridges on_first_ieee;
      Log.log "control: armed (DEC operating, IEEE dormant)"
    end
    else raise "control: preconditions not met (need DEC running, IEEE dormant)"
  end
  else raise "control: both protocol switchlets must be loaded first"
`
