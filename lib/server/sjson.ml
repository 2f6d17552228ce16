(* The wire codec lives in [Support.Sjson]; this alias keeps the
   [Server.Sjson] name and its constructors for existing callers. *)
include Support.Sjson
